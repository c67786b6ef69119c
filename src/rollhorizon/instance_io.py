"""Instance loading, benchmark adaptation, and report serialization."""

from __future__ import annotations

import csv as _csv
import dataclasses
import json
import math
from dataclasses import dataclass, field
from pathlib import Path
from typing import Mapping, Optional

from .metrics import MetricsSummary
from .model import (
    Location,
    Request,
    Route,
    ServiceRecord,
    SolverConfig,
    Stop,
    Vehicle,
    derive_earliest_dropoff,
    routes_cover_records,
    validate_record,
    validate_route,
)
from .travel import EuclideanTravel, MatrixTravel, TravelError

REFERENCE_DAY_S = 720 * 60  # the 12-hour day the standard settings refer to
WAIT_REF_MIN = 30  # waiting/delay allowance on that reference day
DWELL_REF_MIN = 5  # stop service time on that reference day


class ParseError(ValueError):
    """Input file rejected; message carries the file and line."""


@dataclass(frozen=True)
class LilimNode:
    id: int
    x: float
    y: float
    demand: int
    earliest: int
    latest: int
    service: int
    pickup_idx: int
    delivery_idx: int


@dataclass(frozen=True)
class Instance:
    requests: tuple[Request, ...]
    vehicles: tuple[Vehicle, ...]
    travel: object
    config_overrides: Mapping[str, object] = field(default_factory=dict)
    native_horizon: Optional[int] = None  # seconds; benchmark files only
    name: str = ""


@dataclass(frozen=True)
class RunReport:
    requests: tuple[Request, ...]
    vehicles: tuple[Vehicle, ...]
    records: tuple[ServiceRecord, ...]
    routes: tuple[Route, ...]
    config: SolverConfig
    summary: MetricsSummary
    iteration_times_s: tuple[float, ...] = ()
    travel_info: Mapping[str, object] = field(default_factory=dict)
    seed: Optional[int] = None


def load_lilim(path, fleet_size: Optional[int] = None) -> Instance:
    """Read a paired pickup/delivery benchmark file.

    First line: vehicle count, capacity, speed (distance units per minute).
    Then one node per line: id x y demand earliest latest service
    pickup_idx delivery_idx, with node 0 the depot. Each pickup row names
    its delivery row and vice versa; times are minutes and become seconds.
    """
    path = Path(path)
    lines = path.read_text().splitlines()
    rows: list[tuple[int, list[str]]] = []
    for lineno, line in enumerate(lines, start=1):
        if line.strip():
            rows.append((lineno, line.split()))
    if not rows:
        raise ParseError(f"{path}: empty file")
    header_no, header = rows[0]
    if len(header) < 3:
        raise ParseError(f"{path}:{header_no}: header needs vehicles, capacity, speed")
    try:
        n_vehicles, capacity = int(header[0]), int(header[1])
        speed = float(header[2])
    except ValueError:
        raise ParseError(f"{path}:{header_no}: non-numeric header field") from None
    if not math.isfinite(speed):
        raise ParseError(f"{path}:{header_no}: non-finite header field")

    nodes: dict[int, LilimNode] = {}
    node_line: dict[int, int] = {}
    for lineno, toks in rows[1:]:
        if len(toks) != 9:
            raise ParseError(f"{path}:{lineno}: expected 9 fields, got {len(toks)}")
        try:
            node = LilimNode(
                int(toks[0]), float(toks[1]), float(toks[2]), int(toks[3]),
                int(toks[4]), int(toks[5]), int(toks[6]), int(toks[7]), int(toks[8]),
            )
        except ValueError:
            raise ParseError(f"{path}:{lineno}: non-numeric field") from None
        if not (math.isfinite(node.x) and math.isfinite(node.y)):
            raise ParseError(f"{path}:{lineno}: non-finite field")
        if node.id in nodes:
            raise ParseError(f"{path}:{lineno}: duplicate node id {node.id}")
        nodes[node.id] = node
        node_line[node.id] = lineno
    if 0 not in nodes:
        raise ParseError(f"{path}: missing depot node 0")
    depot = nodes[0]

    travel = EuclideanTravel(speed)
    requests = []
    seen_delivery: set[int] = set()
    for nid in sorted(nodes):
        node = nodes[nid]
        if nid == 0 or node.delivery_idx <= 0:
            continue
        # this is a pickup row; its partner must point back
        partner = nodes.get(node.delivery_idx)
        lineno = node_line[nid]
        if partner is None:
            raise ParseError(
                f"{path}:{lineno}: pickup {nid} references missing delivery {node.delivery_idx}"
            )
        if partner.pickup_idx != nid:
            raise ParseError(
                f"{path}:{node_line[partner.id]}: delivery {partner.id} is paired "
                f"with {partner.pickup_idx}, not pickup {nid}"
            )
        if partner.id in seen_delivery:
            raise ParseError(f"{path}:{lineno}: delivery {partner.id} paired twice")
        seen_delivery.add(partner.id)
        if node.demand <= 0:
            raise ParseError(f"{path}:{lineno}: pickup {nid} must have positive demand")
        if partner.demand != -node.demand:
            raise ParseError(
                f"{path}:{node_line[partner.id]}: delivery demand must negate pickup demand"
            )
        req = Request(
            id=nid,
            pickup=Location(node.x, node.y),
            dropoff=Location(partner.x, partner.y),
            desired_pickup_time=node.earliest * 60,
            earliest_dropoff_time=0,
            load=node.demand,
        )
        requests.append(derive_earliest_dropoff(req, travel))
    for nid in sorted(nodes):
        node = nodes[nid]
        if nid == 0:
            continue
        if node.delivery_idx <= 0 and nid not in seen_delivery:
            raise ParseError(
                f"{path}:{node_line[nid]}: node {nid} is neither a pickup nor a paired delivery"
            )

    if fleet_size is not None:
        n_vehicles = fleet_size
    depot_loc = Location(depot.x, depot.y)
    vehicles = tuple(
        Vehicle(i, capacity, depot_loc) for i in range(n_vehicles)
    )
    return Instance(
        requests=tuple(requests),
        vehicles=vehicles,
        travel=travel,
        config_overrides={"capacity": capacity, "fleet_size": n_vehicles},
        native_horizon=depot.latest * 60,
        name=path.stem,
    )


def scale_to_native_day(native_horizon_s: int, minutes: float) -> int:
    """Minutes quoted against the 12-hour reference day, in native seconds."""
    return round(native_horizon_s * minutes * 60 / REFERENCE_DAY_S)


def adapt_benchmark(instance: Instance) -> Instance:
    """Derive waiting, delay, and dwell limits scaled to the native horizon.

    The standard allowances (30 minutes waiting/delay, 5 minutes dwell on a
    12-hour day) are stretched or shrunk in proportion to this instance's
    own horizon, then recorded as config overrides. The per-node windows in
    the file stay untouched and unused: service quality is governed by the
    waiting/delay allowances anchored at each request's desired pickup.
    """
    h = instance.native_horizon
    if not h:
        raise ValueError("instance has no native horizon to adapt from")
    max_wait = scale_to_native_day(h, WAIT_REF_MIN)
    dwell = scale_to_native_day(h, DWELL_REF_MIN)
    overrides = dict(instance.config_overrides)
    overrides.update({"max_wait": max_wait, "max_delay": max_wait, "dwell": dwell})
    return dataclasses.replace(instance, config_overrides=overrides)


CSV_HEADER = ["id", "pickup_x", "pickup_y", "dropoff_x", "dropoff_y", "desired_pickup_min"]


def load_csv_requests(path, travel) -> Instance:
    """Read a plain request list; fleet and settings come from the config."""
    path = Path(path)
    with open(path, newline="") as fh:
        reader = _csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise ParseError(f"{path}: empty file") from None
        if [h.strip() for h in header] != CSV_HEADER:
            raise ParseError(
                f"{path}:1: header must be {','.join(CSV_HEADER)}"
            )
        requests = []
        seen: set[int] = set()
        for rowno, row in enumerate(reader, start=2):
            if not row or all(not c.strip() for c in row):
                continue
            if len(row) != len(CSV_HEADER):
                raise ParseError(f"{path}:{rowno}: expected {len(CSV_HEADER)} columns")
            try:
                rid = int(row[0])
                px, py, dx, dy = (float(c) for c in row[1:5])
                desired_min = float(row[5])
            except ValueError:
                raise ParseError(f"{path}:{rowno}: non-numeric field") from None
            if not all(map(math.isfinite, (px, py, dx, dy, desired_min))):
                raise ParseError(f"{path}:{rowno}: non-finite field")
            if rid in seen:
                raise ParseError(f"{path}:{rowno}: duplicate id {rid}")
            seen.add(rid)
            if desired_min < 0:
                raise ParseError(f"{path}:{rowno}: negative desired pickup time")
            req = Request(
                id=rid,
                pickup=Location(px, py),
                dropoff=Location(dx, dy),
                desired_pickup_time=round(desired_min * 60),
                earliest_dropoff_time=0,
            )
            requests.append(derive_earliest_dropoff(req, travel))
    return Instance(
        requests=tuple(requests),
        vehicles=(),
        travel=travel,
        name=path.stem,
    )


def make_fleet(n: int, capacity: int, depot: Location) -> tuple[Vehicle, ...]:
    return tuple(Vehicle(i, capacity, depot) for i in range(n))


def _fmt_rate(x: float) -> float:
    return round(x, 4)


def report_to_dict(report: RunReport, include_timing: bool = False) -> dict:
    requests = [
        {
            "id": r.id,
            "pickup": {"x": r.pickup.x, "y": r.pickup.y, "node_id": r.pickup.node_id},
            "dropoff": {"x": r.dropoff.x, "y": r.dropoff.y, "node_id": r.dropoff.node_id},
            "desired_pickup_s": r.desired_pickup_time,
            "earliest_dropoff_s": r.earliest_dropoff_time,
            "load": r.load,
        }
        for r in sorted(report.requests, key=lambda r: r.id)
    ]
    records = [
        {
            "request_id": r.request_id,
            "served": r.served,
            "vehicle_id": r.vehicle_id,
            "actual_pickup_s": r.actual_pickup_time,
            "actual_dropoff_s": r.actual_dropoff_time,
        }
        for r in sorted(report.records, key=lambda r: r.request_id)
    ]
    routes = [
        {
            "vehicle_id": rt.vehicle_id,
            "committed_prefix_len": rt.committed_prefix_len,
            "stops": [
                {
                    "kind": s.kind,
                    "request_id": s.request_id,
                    "x": s.location.x,
                    "y": s.location.y,
                    "node_id": s.location.node_id,
                    "scheduled_s": s.scheduled_time,
                    "onboard_after": s.onboard_after,
                }
                for s in rt.stops
            ],
        }
        for rt in sorted(report.routes, key=lambda r: r.vehicle_id)
    ]
    vehicles = [
        {
            "id": v.id,
            "capacity": v.capacity,
            "depot": {"x": v.depot.x, "y": v.depot.y, "node_id": v.depot.node_id},
        }
        for v in sorted(report.vehicles, key=lambda v: v.id)
    ]
    cfg = report.config
    out = {
        "schema_version": 1,
        "config": {
            "horizon_s": cfg.horizon,
            "step_s": cfg.step,
            "rh_factor": cfg.rh_factor,
            "window_span_s": cfg.window_span,
            "max_wait_s": cfg.max_wait,
            "max_delay_s": cfg.max_delay,
            "dwell_s": cfg.dwell,
            "fleet_size": cfg.fleet_size,
            "capacity": cfg.capacity,
            "exhaustive_route_limit": cfg.exhaustive_route_limit,
            "trip_size_limit": cfg.trip_size_limit,
        },
        "travel": dict(report.travel_info),
        "seed": report.seed,
        "requests": requests,
        "vehicles": vehicles,
        "records": records,
        "routes": routes,
        "metrics": {
            "requests_total": report.summary.requests_total,
            "requests_served": report.summary.requests_served,
            "service_rate": _fmt_rate(report.summary.service_rate),
            "avg_delay_min": report.summary.avg_delay_min,
            "avg_delay_defined": report.summary.avg_delay_defined,
            "avg_wait_min": report.summary.avg_wait_min,
            "total_vmt": report.summary.total_vmt,
            "iterations": report.summary.iterations,
        },
    }
    if include_timing:
        out["timing"] = {
            "total_compute_s": report.summary.total_compute_s,
            "compute_time_per_request_s": report.summary.compute_time_per_request_s,
            "iteration_times_s": list(report.iteration_times_s),
        }
    return out


def write_report(report: RunReport, path, format: str = "json",
                 include_timing: bool = False) -> None:
    """Serialize a run deterministically.

    JSON is one document. CSV writes one row per request to `path` plus an
    aggregate footer file next to it with a .summary.csv suffix. Timing is
    left out unless asked for, so identical runs give identical bytes.
    """
    path = Path(path)
    if format == "json":
        doc = report_to_dict(report, include_timing)
        path.write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n")
        return
    if format != "csv":
        raise ValueError(f"unknown report format {format!r}")
    requests_by_id = {r.id: r for r in report.requests}
    with open(path, "w", newline="") as fh:
        w = _csv.writer(fh)
        w.writerow(
            ["request_id", "served", "vehicle_id", "desired_pickup_s",
             "actual_pickup_s", "actual_dropoff_s", "waiting_s", "delay_s"]
        )
        for rec in sorted(report.records, key=lambda r: r.request_id):
            req = requests_by_id[rec.request_id]
            wait = (
                rec.actual_pickup_time - req.desired_pickup_time if rec.served else ""
            )
            delay = (
                rec.actual_dropoff_time - req.earliest_dropoff_time if rec.served else ""
            )
            w.writerow(
                [rec.request_id, int(rec.served),
                 rec.vehicle_id if rec.served else "",
                 req.desired_pickup_time,
                 rec.actual_pickup_time if rec.served else "",
                 rec.actual_dropoff_time if rec.served else "",
                 wait, delay]
            )
    summary_path = path.with_suffix(".summary.csv")
    with open(summary_path, "w", newline="") as fh:
        w = _csv.writer(fh)
        header = ["requests_total", "requests_served", "service_rate",
                  "avg_delay_min", "avg_wait_min", "total_vmt", "iterations"]
        row = [report.summary.requests_total, report.summary.requests_served,
               f"{report.summary.service_rate:.4f}",
               report.summary.avg_delay_min, report.summary.avg_wait_min,
               report.summary.total_vmt, report.summary.iterations]
        if include_timing:
            header += ["total_compute_s", "compute_time_per_request_s"]
            row += [report.summary.total_compute_s,
                    report.summary.compute_time_per_request_s]
        w.writerow(header)
        w.writerow(row)


def load_travel_tables(path) -> MatrixTravel:
    """Read an instance's travel tables: a JSON object whose "times" and
    "distances" are the n x n lists MatrixTravel takes, indexed by node id."""
    try:
        doc = json.loads(Path(path).read_text())
        return MatrixTravel(doc["times"], doc["distances"])
    except json.JSONDecodeError as e:
        raise ParseError(f"{path}: not valid JSON ({e})") from None
    except (KeyError, TypeError, TravelError) as e:
        raise ParseError(f"{path}: no travel tables ({e!r})") from None


def load_report_dict(path) -> dict:
    try:
        return json.loads(Path(path).read_text())
    except json.JSONDecodeError as e:
        raise ParseError(f"{path}: not valid JSON ({e})") from None


def _of(value, *types):
    """The value, if its JSON type is one of types (a bool is no int)."""
    if type(value) not in types:
        raise TypeError(f"{value!r} is not {' or '.join(t.__name__ for t in types)}")
    return value


def _location(d: dict) -> Location:
    return Location(_of(d["x"], int, float), _of(d["y"], int, float),
                    _of(d.get("node_id"), int, type(None)))


def report_violations(doc: dict, tables: Optional[MatrixTravel] = None) -> list[str]:
    """Re-check a serialized report against the service constraints.

    Rebuilds requests, records, and routes from the document and runs the
    independent validators. A field of the wrong JSON type (a number given
    as a string, say) makes the document malformed. Leg reachability, from
    each vehicle's depot at time 0 on, is checked when the report declares
    planar travel, or when the tables of a matrix report are given; a
    report does not hold its matrix, so without them a matrix report skips
    that part. Tables whose size differs from the report's declared matrix
    are a violation, and so is a route of a vehicle the report does not
    list, or a second route of one vehicle.
    """
    problems: list[str] = []
    try:
        cfg = doc["config"]
        config = SolverConfig(*[_of(cfg[key], int) for key in (
            "horizon_s", "step_s", "rh_factor", "max_wait_s", "max_delay_s",
            "dwell_s", "fleet_size", "capacity")])
        requests_by_id = {}
        for r in doc["requests"]:
            requests_by_id[r["id"]] = Request(
                id=_of(r["id"], int),
                pickup=_location(r["pickup"]),
                dropoff=_location(r["dropoff"]),
                desired_pickup_time=_of(r["desired_pickup_s"], int),
                earliest_dropoff_time=_of(r["earliest_dropoff_s"], int),
                load=_of(r.get("load", 1), int),
            )
        records = [
            ServiceRecord(
                _of(r["request_id"], int), _of(r["served"], bool),
                _of(r.get("vehicle_id"), int, type(None)),
                _of(r.get("actual_pickup_s"), int, type(None)),
                _of(r.get("actual_dropoff_s"), int, type(None)),
            )
            for r in doc["records"]
        ]
        routes = []
        for rt in doc["routes"]:
            stops = tuple(
                Stop(
                    s["kind"], _of(s["request_id"], int), _location(s),
                    _of(s["scheduled_s"], int), _of(s["onboard_after"], int),
                )
                for s in rt["stops"]
            )
            routes.append(Route(_of(rt["vehicle_id"], int), stops,
                                _of(rt["committed_prefix_len"], int)))
        depots = {_of(v["id"], int): _location(v["depot"]) for v in doc["vehicles"]}
        travel = None
        tinfo = doc.get("travel", {})
        if tinfo.get("mode") == "euclidean":
            travel = EuclideanTravel(tinfo.get("speed", 1.0))
        if tables is not None:
            if tinfo != {"mode": "matrix", "size": tables.n}:
                return [f"travel tables of {tables.n} nodes do not fit the report's "
                        f"travel {tinfo!r}"]
            travel = tables
    except (AttributeError, KeyError, TypeError, TravelError) as e:
        return [f"malformed report document: {e!r}"]

    seen = set()
    for rec in records:
        if rec.request_id in seen:
            problems.append(f"request {rec.request_id}: duplicate record")
        seen.add(rec.request_id)
        req = requests_by_id.get(rec.request_id)
        if req is None:
            problems.append(f"request {rec.request_id}: record without request")
            continue
        problems.extend(validate_record(rec, req, config))
    for rid in set(requests_by_id) - seen:
        problems.append(f"request {rid}: no record in report")
    routed = set()
    for route in routes:
        if route.vehicle_id not in depots:
            problems.append(f"vehicle {route.vehicle_id}: route of a vehicle not in the fleet")
        elif route.vehicle_id in routed:
            problems.append(f"vehicle {route.vehicle_id}: second route")
        routed.add(route.vehicle_id)
        if route.committed_prefix_len != len(route.stops):
            problems.append(
                f"vehicle {route.vehicle_id}: final route must be fully committed"
            )
        problems.extend(validate_route(route, requests_by_id, travel, config,
                                       start_location=depots.get(route.vehicle_id)))
    problems.extend(routes_cover_records(routes, records))
    return problems
