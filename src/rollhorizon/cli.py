"""Command-line front end: run experiments, sweeps, and report audits."""

from __future__ import annotations

import argparse
import csv as _csv
import dataclasses
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
    make_fleet,
    report_violations,
    scale_to_native_day,
    write_report,
)
from .model import Location, SolverConfig, validate_config
from .simulator import SimulationError
from .travel import EuclideanTravel, TravelError

EXIT_OK = 0
EXIT_VIOLATIONS = 1
EXIT_PARSE = 2
EXIT_CONFIG = 3
EXIT_ASSIGNMENT_BUDGET = 4
EXIT_STRANDED = 5
EXIT_SIMULATION = 6

# Standard service settings; the nyc profile only tightens the step.
DEFAULT_STEP_MIN = 15.0
NYC_STEP_MIN = 5.0
DEFAULT_WAIT_MIN = 30.0
DEFAULT_DELAY_MIN = 30.0
DEFAULT_DWELL_MIN = 10.0
DEFAULT_CAPACITY = 8
DEFAULT_FLEET = 4

SWEEP_COLUMNS = [
    "instance", "fleet_size", "rh_factor", "status",
    "service_rate", "avg_delay_min", "vmt", "sec_per_request",
]


def _given(opt: dict, key: str, default):
    """opt[key] unless it was left unset; an explicit zero is kept."""
    value = opt.get(key)
    return default if value is None else value


def _step_minutes(opt: dict) -> float:
    return _given(opt, "step_min",
                  NYC_STEP_MIN if opt.get("profile") == "nyc" else DEFAULT_STEP_MIN)


def _load_instance(path: str, fmt: str, opt: dict) -> Instance:
    if fmt == "lilim":
        # the file sets its own speed and depot
        given = [f"--{key.replace('_', '-')}" for key in ("speed", "depot_x", "depot_y")
                 if opt.get(key) is not None]
        if given:
            raise ConfigError(f"only --format csv takes {', '.join(given)}")
        inst = load_lilim(path, fleet_size=opt.get("fleet_size"))
        return adapt_benchmark(inst)
    if fmt != "csv":
        raise ParseError(f"unknown instance format {fmt!r}")
    if (opt.get("depot_x") is None) != (opt.get("depot_y") is None):
        raise ConfigError("--depot-x and --depot-y must be given together")
    travel = EuclideanTravel(_given(opt, "speed", 1.0))
    inst = load_csv_requests(path, travel)
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
    fleet = _given(opt, "fleet_size", DEFAULT_FLEET)
    capacity = _given(opt, "capacity", DEFAULT_CAPACITY)
    return dataclasses.replace(
        inst,
        vehicles=make_fleet(fleet, capacity, depot),
        config_overrides={"fleet_size": fleet, "capacity": capacity},
    )


def _build_config(inst: Instance, fmt: str, opt: dict) -> tuple[Instance, SolverConfig]:
    ov = dict(inst.config_overrides)
    rh = _given(opt, "rh_factor", 0)
    if fmt == "lilim":
        h = inst.native_horizon or 0
        if h <= 0:
            raise ParseError(f"{inst.name}: benchmark file has no horizon")
        step = scale_to_native_day(h, _step_minutes(opt))
        horizon = max(step, math.ceil(h / step) * step) if step > 0 else 0
        max_wait = (
            scale_to_native_day(h, opt["max_wait_min"]) if opt.get("max_wait_min") is not None
            else ov["max_wait"]
        )
        max_delay = (
            scale_to_native_day(h, opt["max_delay_min"]) if opt.get("max_delay_min") is not None
            else ov["max_delay"]
        )
        dwell = (
            scale_to_native_day(h, opt["dwell_min"]) if opt.get("dwell_min") is not None
            else ov["dwell"]
        )
        capacity = _given(opt, "capacity", ov["capacity"])
    else:
        step = round(_step_minutes(opt) * 60)
        latest = max(r.desired_pickup_time for r in inst.requests)
        horizon = (latest // step + 2) * step if step > 0 else 0
        max_wait = round(_given(opt, "max_wait_min", DEFAULT_WAIT_MIN) * 60)
        max_delay = round(_given(opt, "max_delay_min", DEFAULT_DELAY_MIN) * 60)
        dwell = round(_given(opt, "dwell_min", DEFAULT_DWELL_MIN) * 60)
        capacity = _given(opt, "capacity", DEFAULT_CAPACITY)
    fleet = _given(opt, "fleet_size", ov.get("fleet_size", DEFAULT_FLEET))
    config = SolverConfig(
        horizon=horizon,
        step=step,
        rh_factor=rh,
        max_wait=max_wait,
        max_delay=max_delay,
        dwell=dwell,
        fleet_size=fleet,
        capacity=capacity,
    )
    if inst.vehicles:
        depot = inst.vehicles[0].depot
    else:
        depot = Location(0.0, 0.0)
    if (
        len(inst.vehicles) != fleet
        or any(v.capacity != capacity for v in inst.vehicles)
    ):
        inst = dataclasses.replace(inst, vehicles=make_fleet(fleet, capacity, depot))
    return inst, config


def _opt_from_args(args: argparse.Namespace) -> dict:
    keys = (
        "step_min", "rh_factor", "max_wait_min", "max_delay_min", "dwell_min",
        "fleet_size", "capacity", "profile", "speed", "depot_x", "depot_y",
    )
    return {k: getattr(args, k, None) for k in keys}


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
    opt = _opt_from_args(args)
    try:
        inst = _load_instance(args.instance, args.format, opt)
        inst, config = _build_config(inst, args.format, opt)
    except (FileNotFoundError, OSError) as e:
        print(f"error: cannot read instance: {e}", file=sys.stderr)
        return EXIT_PARSE
    except ParseError as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_PARSE
    except (ConfigError, TravelError) as e:
        print(f"config error: {e}", file=sys.stderr)
        return EXIT_CONFIG
    problems = validate_config(config)
    if problems:
        for p in problems:
            print(f"config error: {p}", file=sys.stderr)
        return EXIT_CONFIG
    try:
        report = run(inst, config, seed=args.seed)
    except ConfigError as e:
        print(f"config error: {e}", file=sys.stderr)
        return EXIT_CONFIG
    except EngineError as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_VIOLATIONS
    except AssignmentBudgetError as e:
        print(f"assignment error: {e}", file=sys.stderr)
        return EXIT_ASSIGNMENT_BUDGET
    except StrandedRequestError as e:
        print(f"assignment error: {e}", file=sys.stderr)
        return EXIT_STRANDED
    except SimulationError as e:
        print(f"simulation error: {e}", file=sys.stderr)
        return EXIT_SIMULATION
    out = args.output or f"{Path(args.instance).stem}.report.{args.output_format}"
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
    row = {
        "instance": job["name"],
        "fleet_size": job["fleet"],
        "rh_factor": job["rh"],
        "status": "ok",
        "service_rate": "",
        "avg_delay_min": "",
        "vmt": "",
        "sec_per_request": "",
    }
    try:
        if job["kind"] == "corpus":
            inst = corpus_mod.make_instance(
                job["seed"], n_requests=job["n_requests"], n_vehicles=job["fleet"]
            )
            config = corpus_mod.corpus_config(
                job["rh"], fleet_size=job["fleet"]
            )
        else:
            opt = dict(job["opt"])
            opt["fleet_size"] = job["fleet"]
            opt["rh_factor"] = job["rh"]
            inst = _load_instance(job["path"], job["format"], opt)
            inst, config = _build_config(inst, job["format"], opt)
        problems = validate_config(config)
        if problems:
            row["status"] = "config error: " + "; ".join(problems)
            return row
        report = run(inst, config, seed=job.get("seed"))
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
    opt = _opt_from_args(args)
    try:
        fleets = _parse_int_list(args.fleet_sizes, "--fleet-sizes")
        rhs = _parse_int_list(args.rh_factors, "--rh-factors")
        if args.corpus is None and args.instance is None:
            raise ParseError("sweep needs --instance or --corpus")
        jobs = []
        if args.corpus is not None:
            n = args.corpus
            if n < 1 or n > len(corpus_mod.CORPUS_SEEDS):
                raise ParseError(
                    f"--corpus must be 1..{len(corpus_mod.CORPUS_SEEDS)}"
                )
            for seed in corpus_mod.CORPUS_SEEDS[:n]:
                for fleet in fleets:
                    for rh in rhs:
                        jobs.append({
                            "kind": "corpus", "seed": seed,
                            "name": f"corpus-{seed}",
                            "n_requests": args.corpus_requests,
                            "fleet": fleet, "rh": rh,
                            "timings": args.timings,
                        })
        else:
            if not Path(args.instance).exists():
                raise ParseError(f"{args.instance}: no such file")
            for fleet in fleets:
                for rh in rhs:
                    jobs.append({
                        "kind": "file", "path": args.instance,
                        "format": args.format,
                        "name": Path(args.instance).stem,
                        "opt": opt, "fleet": fleet, "rh": rh,
                        "seed": args.seed, "timings": args.timings,
                    })
    except ParseError as e:
        print(f"error: {e}", file=sys.stderr)
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

    out = args.output or "sweep.csv"
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
    except (FileNotFoundError, OSError) as e:
        print(f"error: cannot read report: {e}", file=sys.stderr)
        return EXIT_PARSE
    except ParseError as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_PARSE
    problems = report_violations(doc)
    for p in problems:
        print(f"violation: {p}")
    if problems:
        print(f"{len(problems)} violation(s)")
        return EXIT_VIOLATIONS
    print("report ok")
    return EXIT_OK


def cmd_adapt(args: argparse.Namespace) -> int:
    try:
        inst = load_lilim(args.instance, fleet_size=args.fleet_size)
        adapted = adapt_benchmark(inst)
    except (FileNotFoundError, OSError) as e:
        print(f"error: cannot read instance: {e}", file=sys.stderr)
        return EXIT_PARSE
    except (ParseError, ValueError) as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_PARSE
    ov = adapted.config_overrides
    doc = {
        "instance": adapted.name,
        "native_horizon_s": adapted.native_horizon,
        "max_wait_s": ov["max_wait"],
        "max_delay_s": ov["max_delay"],
        "dwell_s": ov["dwell"],
        "fleet_size": ov["fleet_size"],
        "capacity": ov["capacity"],
        "requests": len(adapted.requests),
    }
    text = json.dumps(doc, indent=2, sort_keys=True) + "\n"
    if args.output:
        Path(args.output).write_text(text)
    print(text, end="")
    return EXIT_OK


def _add_instance_flags(p: argparse.ArgumentParser, require_instance: bool) -> None:
    p.add_argument("--instance", required=require_instance, help="instance file path")
    p.add_argument("--format", choices=["lilim", "csv"], default="lilim",
                   help="instance file format (default lilim)")
    p.add_argument("--fleet-size", type=int, default=None)
    p.add_argument("--capacity", type=int, default=None)
    p.add_argument("--speed", type=float, default=None,
                   help="csv format: travel speed, distance units per minute")
    p.add_argument("--depot-x", type=float, default=None,
                   help="csv format: depot x (default: pickup centroid)")
    p.add_argument("--depot-y", type=float, default=None)


def _add_config_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--step-min", type=float, default=None,
                   help=f"iteration step in minutes (default {DEFAULT_STEP_MIN:g}; "
                        "scaled to the native day for lilim instances)")
    p.add_argument("--rh-factor", type=int, default=0,
                   help="look-ahead overlap factor (0 = pure online)")
    p.add_argument("--max-wait-min", type=float, default=None)
    p.add_argument("--max-delay-min", type=float, default=None)
    p.add_argument("--dwell-min", type=float, default=None)
    p.add_argument("--profile", choices=["default", "nyc"], default="default",
                   help="nyc switches the default step to "
                        f"{NYC_STEP_MIN:g} minutes")
    p.add_argument("--seed", type=int, default=None,
                   help="echoed into the report for provenance")
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
    _add_instance_flags(ps, require_instance=True)
    _add_config_flags(ps)
    ps.add_argument("--output", default=None, help="report path")
    ps.add_argument("--output-format", choices=["json", "csv"], default="json")
    ps.set_defaults(func=cmd_solve)

    pw = sub.add_parser("sweep", help="run a fleet x look-ahead grid, emit CSV")
    _add_instance_flags(pw, require_instance=False)
    _add_config_flags(pw)
    pw.add_argument("--fleet-sizes", default=str(DEFAULT_FLEET),
                    help="comma-separated fleet sizes")
    pw.add_argument("--rh-factors", default="0",
                    help="comma-separated look-ahead factors")
    pw.add_argument("--corpus", type=int, default=None, metavar="N",
                    help="sweep the first N bundled seeded instances "
                         "instead of --instance")
    pw.add_argument("--corpus-requests", type=int, default=100)
    pw.add_argument("--output", default=None, help="CSV path (default sweep.csv)")
    pw.set_defaults(func=cmd_sweep)

    pv = sub.add_parser("validate", help="audit a report against all constraints")
    pv.add_argument("--report", required=True, help="report JSON path")
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
