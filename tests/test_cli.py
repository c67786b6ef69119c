"""End-to-end checks of the command line, run in-process via main(argv)."""

import copy
import csv
import json
import random
from pathlib import Path

import pytest

from instgen import matrix_instance
from rollhorizon import corpus_config, make_instance, run, write_report
from rollhorizon.assignment_ilp import AssignmentBudgetError, StrandedRequestError
from rollhorizon.cli import SWEEP_COLUMNS, main
from rollhorizon.instance_io import report_violations
from rollhorizon.simulator import SimulationError

DATA = Path(__file__).parent / "data"
FIXTURE = DATA / "synthetic_pd_small.txt"


@pytest.fixture(autouse=True)
def _serial(monkeypatch):
    # keep sweeps single-process so coverage and determinism are simple
    monkeypatch.delenv("ROLLHORIZON_THREADS", raising=False)


def test_solve_writes_report_and_summary(tmp_path, capsys):
    out = tmp_path / "small.report.json"
    code = main(["solve", "--instance", str(FIXTURE), "--output", str(out)])
    assert code == 0
    text = capsys.readouterr().out
    assert "service_rate=" in text and f"report={out}" in text
    doc = json.loads(out.read_text())
    assert doc["schema_version"] == 1
    assert len(doc["records"]) == 3


def test_solve_default_output_name(tmp_path, capsys, monkeypatch):
    monkeypatch.chdir(tmp_path)
    assert main(["solve", "--instance", str(FIXTURE)]) == 0
    capsys.readouterr()
    assert (tmp_path / "synthetic_pd_small.report.json").exists()


def test_solve_missing_instance(tmp_path, capsys):
    code = main(["solve", "--instance", str(tmp_path / "nope.txt")])
    assert code == 2
    assert "cannot read" in capsys.readouterr().err


def test_solve_rejects_zero_step(tmp_path, capsys):
    code = main([
        "solve", "--instance", str(FIXTURE), "--step-min", "0",
        "--output", str(tmp_path / "x.json"),
    ])
    assert code == 3
    assert "config error" in capsys.readouterr().err


def test_validate_accepts_fresh_report(tmp_path, capsys):
    out = tmp_path / "r.json"
    assert main(["solve", "--instance", str(FIXTURE), "--output", str(out)]) == 0
    capsys.readouterr()
    assert main(["validate", "--report", str(out)]) == 0
    assert "report ok" in capsys.readouterr().out


def test_validate_flags_corruption(tmp_path, capsys):
    out = tmp_path / "r.json"
    assert main(["solve", "--instance", str(FIXTURE), "--output", str(out)]) == 0
    capsys.readouterr()
    doc = json.loads(out.read_text())
    served = [r for r in doc["records"] if r["served"]]
    assert served, "fixture run should serve someone"
    served[0]["actual_pickup_s"] += 10_000_000
    out.write_text(json.dumps(doc))
    assert main(["validate", "--report", str(out)]) == 1
    assert "violation" in capsys.readouterr().out


def test_validate_rejects_bad_json(tmp_path, capsys):
    bad = tmp_path / "broken.json"
    bad.write_text("{not json")
    assert main(["validate", "--report", str(bad)]) == 2
    assert "error" in capsys.readouterr().err


def test_validate_rejects_an_unreadable_report(tmp_path, capsys):
    assert main(["validate", "--report", str(tmp_path / "missing.json")]) == 2
    assert "error: cannot read report:" in capsys.readouterr().err


def test_validate_times_each_route_from_its_depot(tmp_path, capsys):
    # a route's first leg starts at its vehicle's depot at time 0
    out = tmp_path / "r.json"
    assert main(["solve", "--instance", str(FIXTURE), "--output", str(out)]) == 0
    capsys.readouterr()
    doc = json.loads(out.read_text())
    vid = next(rt["vehicle_id"] for rt in doc["routes"] if rt["stops"])
    depot = next(v["depot"] for v in doc["vehicles"] if v["id"] == vid)
    depot["x"] += 1_000_000
    out.write_text(json.dumps(doc))
    assert main(["validate", "--report", str(out)]) == 1
    assert f"violation: vehicle {vid} stop 0: service at" in capsys.readouterr().out

def test_validate_retimes_a_matrix_report_with_its_instance_tables(tmp_path, capsys):
    # a matrix report does not hold its tables: a stop moved one second
    # earlier than its leg allows passes a plain audit, and fails one that
    # re-reads the instance's tables
    inst = matrix_instance(make_instance(101, n_requests=30), random.Random(5))
    out, tables = tmp_path / "r.json", tmp_path / "tables.json"
    write_report(run(inst, corpus_config(2)), out)
    tables.write_text(json.dumps({"times": inst.travel.times,
                                  "distances": inst.travel.distances}))
    assert main(["validate", "--report", str(out), "--instance", str(tables)]) == 0
    doc = json.loads(out.read_text())

    def moved_stops():
        # each stop after a route's first, one second before its leg allows
        for v, rt in enumerate(doc["routes"]):
            for i in range(1, len(rt["stops"])):
                prev, stop = rt["stops"][i - 1], rt["stops"][i]
                early = (prev["scheduled_s"] + doc["config"]["dwell_s"]
                         + inst.travel.times[prev["node_id"]][stop["node_id"]] - 1)
                moved = copy.deepcopy(doc)
                moved["routes"][v]["stops"][i]["scheduled_s"] = early
                rec = next(r for r in moved["records"] if r["request_id"] == stop["request_id"])
                rec[f"actual_{stop['kind']}_s"] = early
                yield moved, i, early

    # one that every other rule still allows
    moved, i, early = next(m for m in moved_stops() if report_violations(m[0]) == [])
    out.write_text(json.dumps(moved))
    capsys.readouterr()
    assert main(["validate", "--report", str(out)]) == 0
    assert main(["validate", "--report", str(out), "--instance", str(tables)]) == 1
    assert f"stop {i}: service at {early} before reachable time {early + 1}" in (
        capsys.readouterr().out)
    # tables of another instance do not fit, and a missing file is no input
    tables.write_text(json.dumps({"times": [[0]], "distances": [[0]]}))
    assert main(["validate", "--report", str(out), "--instance", str(tables)]) == 1
    assert "travel tables of 1 nodes do not fit" in capsys.readouterr().out
    missing = str(tmp_path / "missing.json")
    assert main(["validate", "--report", str(out), "--instance", missing]) == 2
    assert "error: cannot read instance:" in capsys.readouterr().err


def test_sweep_corpus_grid_is_deterministic(tmp_path, capsys):
    args = [
        "sweep", "--corpus", "2", "--corpus-requests", "8",
        "--rh-factors", "0,1",
    ]
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    assert main(args + ["--output", str(a)]) == 0
    assert main(args + ["--output", str(b)]) == 0
    assert "4 runs, 0 failed" in capsys.readouterr().out
    assert a.read_bytes() == b.read_bytes()
    lines = a.read_text().splitlines()
    assert lines[0] == ",".join(SWEEP_COLUMNS)
    assert len(lines) == 5
    # grid sorted by instance then fleet then factor
    names = [ln.split(",")[0] for ln in lines[1:]]
    assert names == sorted(names)


def test_sweep_runs_each_cell_of_a_file(tmp_path, capsys):
    # a cell that cannot run becomes a row with its error; the others run
    # as `solve` would, with the cell's fleet size and factor
    out = tmp_path / "grid.csv"
    argv = ["sweep", "--instance", str(FIXTURE), "--fleet-sizes", "0,2", "--rh-factors", "0,1",
            "--output", str(out)]
    assert main(argv) == 0
    assert "4 runs, 2 failed" in capsys.readouterr().out
    with open(out, newline="") as fh:
        rows = {(r["fleet_size"], r["rh_factor"]): r for r in csv.DictReader(fh)}
    assert len(rows) == 4
    for rh in "01":
        assert rows[("0", rh)]["status"] == "config error: fleet_size must be >= 1"
    assert (rows[("2", "1")]["service_rate"], rows[("2", "1")]["vmt"]) == ("1.0000", "17.469")
    assert main(["solve", "--instance", str(FIXTURE), "--fleet-size", "2", "--rh-factor", "1",
                 "--output", str(tmp_path / "r.json")]) == 0
    summary = capsys.readouterr().out
    assert "service_rate=1.0000 " in summary and " vmt=17.469 " in summary


def test_sweep_needs_a_target(capsys):
    assert main(["sweep"]) == 2
    assert "--instance or --corpus" in capsys.readouterr().err


def test_sweep_rejects_bad_factor_list(capsys):
    assert main(["sweep", "--corpus", "1", "--rh-factors", "a,b"]) == 2
    assert "comma-separated integers" in capsys.readouterr().err


def test_sweep_rejects_corpus_out_of_range(capsys):
    assert main(["sweep", "--corpus", "0"]) == 2
    capsys.readouterr()


def test_adapt_reports_settings(tmp_path, capsys):
    out = tmp_path / "settings.json"
    code = main(["adapt", "--instance", str(FIXTURE), "--output", str(out)])
    assert code == 0
    text = capsys.readouterr().out
    doc = json.loads(text)
    assert doc["requests"] == 3
    assert doc["native_horizon_s"] == 7200
    assert out.read_text() == text


def _two_request_csv(tmp_path):
    src = tmp_path / "req.csv"
    src.write_text(
        "id,pickup_x,pickup_y,dropoff_x,dropoff_y,desired_pickup_min\n"
        "0,0,0,3,4,2\n"
        "1,1,1,5,5,10.5\n"
    )
    return src


def test_solve_csv_instance(tmp_path, capsys):
    src = _two_request_csv(tmp_path)
    out = tmp_path / "req.report.csv"
    code = main([
        "solve", "--instance", str(src), "--format", "csv",
        "--output", str(out), "--output-format", "csv",
    ])
    assert code == 0
    capsys.readouterr()
    assert out.exists()
    assert (tmp_path / "req.report.summary.csv").exists()
    assert len(out.read_text().splitlines()) == 3  # header + one row per request


@pytest.mark.parametrize("error, code", [
    (AssignmentBudgetError("no assignment within the node budget"), 4),
    (StrandedRequestError([7]), 5),
    (SimulationError("route failed validation"), 6),
])
def test_solve_maps_solver_failures_to_exit_codes(tmp_path, capsys, monkeypatch, error, code):
    def fail(*args, **kwargs):
        raise error

    monkeypatch.setattr("rollhorizon.cli.run", fail)
    out = tmp_path / "x.json"
    assert main(["solve", "--instance", str(FIXTURE), "--output", str(out)]) == code
    assert str(error) in capsys.readouterr().err
    assert not out.exists()


def test_solve_keeps_explicit_zero_minutes(tmp_path, capsys):
    out = tmp_path / "req.report.json"
    code = main([
        "solve", "--instance", str(_two_request_csv(tmp_path)), "--format", "csv",
        "--dwell-min", "0", "--max-wait-min", "0", "--max-delay-min", "0",
        "--output", str(out),
    ])
    assert code == 0
    capsys.readouterr()
    config = json.loads(out.read_text())["config"]
    assert (config["dwell_s"], config["max_wait_s"], config["max_delay_s"]) == (0, 0, 0)


@pytest.mark.parametrize("fmt, flags, message", [
    ("csv", ["--capacity", "0"], "capacity must be >= 1"),
    ("csv", ["--fleet-size", "0"], "fleet_size must be >= 1"),
    ("csv", ["--speed", "0"], "speed must be positive"),
    ("csv", ["--speed", "-1"], "speed must be positive"),
    ("lilim", ["--capacity", "0"], "capacity must be >= 1"),
    ("lilim", ["--fleet-size", "0"], "fleet_size must be >= 1"),
    ("csv", ["--speed", "nan"], "speed must be positive and finite, got nan"),
    ("csv", ["--speed", "inf"], "speed must be positive and finite, got inf"),
    ("csv", ["--step-min", "nan"], "--step-min must be finite"),
    ("csv", ["--max-wait-min", "inf"], "--max-wait-min must be finite"),
    ("csv", ["--depot-x", "nan", "--depot-y", "0"], "--depot-x must be finite"),
    ("lilim", ["--step-min", "nan"], "--step-min must be finite"),
    ("lilim", ["--max-delay-min=-inf", "--dwell-min", "inf"],
     "--max-delay-min, --dwell-min must be finite"),
])
def test_solve_rejects_explicit_zero_or_negative_settings(tmp_path, capsys, fmt, flags,
                                                          message):
    # an explicit value is used as given, never swapped for the default, and
    # a value that is no finite number is refused
    instance = _two_request_csv(tmp_path) if fmt == "csv" else FIXTURE
    out = tmp_path / "x.json"
    code = main(["solve", "--instance", str(instance), "--format", fmt, *flags,
                 "--output", str(out)])
    assert code == 3
    err = capsys.readouterr().err
    assert "config error" in err and message in err
    assert not out.exists()


@pytest.mark.parametrize("fmt, flags, message", [
    ("lilim", ["--speed", "0"], "only --format csv takes --speed"),
    ("lilim", ["--depot-x", "99"], "only --format csv takes --depot-x"),
    ("lilim", ["--depot-y", "99"], "only --format csv takes --depot-y"),
    ("csv", ["--depot-x", "50"], "--depot-x and --depot-y must be given together"),
    ("csv", ["--depot-y", "50"], "--depot-x and --depot-y must be given together"),
])
def test_solve_rejects_travel_flags_it_would_ignore(tmp_path, capsys, fmt, flags, message):
    # a benchmark file sets its own speed and depot, and a csv depot needs both axes
    instance = _two_request_csv(tmp_path) if fmt == "csv" else FIXTURE
    out = tmp_path / "x.json"
    code = main(["solve", "--instance", str(instance), "--format", fmt, *flags,
                 "--output", str(out)])
    assert code == 3
    err = capsys.readouterr().err
    assert "config error" in err and message in err
    assert not out.exists()


def test_solve_rejects_a_benchmark_file_with_no_vehicles(tmp_path, capsys):
    header, *rows = FIXTURE.read_text().splitlines(keepends=True)
    src = tmp_path / "zero.txt"
    src.write_text("0" + header[header.index("\t"):] + "".join(rows))
    assert main(["solve", "--instance", str(src), "--output", str(tmp_path / "x.json")]) == 3
    assert "fleet_size must be >= 1" in capsys.readouterr().err


def test_sweep_starts_no_more_workers_than_runs(tmp_path, capsys, monkeypatch):
    started = []

    class RecordingPool:
        # stands in for the process pool and runs every job in this process
        def __init__(self, max_workers):
            started.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, jobs):
            return map(fn, jobs)

    monkeypatch.setattr("rollhorizon.cli.ProcessPoolExecutor", RecordingPool)
    monkeypatch.setenv("ROLLHORIZON_THREADS", "64")
    out = tmp_path / "grid.csv"
    assert main(["sweep", "--corpus", "1", "--corpus-requests", "4", "--rh-factors", "0,1",
                 "--output", str(out)]) == 0
    assert "2 runs, 0 failed" in capsys.readouterr().out
    assert started == [2]


@pytest.mark.parametrize("command", ["solve", "adapt"])
def test_a_benchmark_file_with_no_horizon_is_a_parse_error(tmp_path, capsys, command):
    # the depot row closes at time 0, so the file has no day to scale to
    header, depot, *rows = FIXTURE.read_text().splitlines(keepends=True)
    fields = depot.split("\t")
    fields[5] = "0"
    src = tmp_path / "closed.txt"
    src.write_text(header + "\t".join(fields) + "".join(rows))
    argv = [command, "--instance", str(src), "--output", str(tmp_path / "x.json")]
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and "no horizon" in err
    assert not (tmp_path / "x.json").exists()


@pytest.mark.parametrize("fmt, edit", [
    ("csv", lambda text: text.replace("1,1,1,5,5,10.5", "1,nan,1,5,5,10.5")),
    ("csv", lambda text: text.replace("1,1,1,5,5,10.5", "1,1,1,5,5,inf")),
    ("lilim", lambda text: text.replace("3\t50\t1\n", "3\t50\tnan\n", 1)),
    ("lilim", lambda text: text.replace("\n0\t5\t", "\n0\tinf\t", 1)),
])
def test_a_non_finite_number_in_an_instance_file_is_a_parse_error(tmp_path, capsys, fmt,
                                                                   edit):
    source = _two_request_csv(tmp_path) if fmt == "csv" else FIXTURE
    src = tmp_path / f"bad.{fmt}"
    src.write_text(edit(source.read_text()))
    assert src.read_text() != source.read_text()
    out = tmp_path / "x.json"
    assert main(["solve", "--instance", str(src), "--format", fmt, "--output", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: {src}:") and "non-finite" in err
    assert not out.exists()


@pytest.mark.parametrize("travel", [
    {"mode": "euclidean", "speed": 0},
    {"mode": "euclidean", "speed": -2},
    {"mode": "euclidean", "speed": "fast"},
    {"mode": "euclidean", "speed": float("nan")},
    {"mode": "euclidean", "speed": float("inf")},
    "euclidean",
])
def test_validate_reports_a_bad_travel_block_as_malformed(tmp_path, capsys, travel):
    out = tmp_path / "r.json"
    assert main(["solve", "--instance", str(FIXTURE), "--output", str(out)]) == 0
    capsys.readouterr()
    doc = json.loads(out.read_text())
    assert doc["travel"] == {"mode": "euclidean", "speed": 1.0}
    doc["travel"] = travel
    out.write_text(json.dumps(doc))
    assert main(["validate", "--report", str(out)]) == 1
    lines = capsys.readouterr().out.splitlines()
    assert lines[0].startswith("violation: malformed report document:")
    assert lines[1:] == ["1 violation(s)"]


@pytest.mark.parametrize("flags", [
    ["--format", "lilim"], ["--capacity", "1"], ["--speed", "2"], ["--depot-x", "1"],
    ["--depot-y", "1"], ["--step-min", "1"], ["--max-wait-min", "5"],
    ["--max-delay-min", "5"], ["--dwell-min", "0"],
])
def test_sweep_corpus_takes_no_instance_or_config_flag(tmp_path, capsys, flags):
    # the corpus brings its own instances and settings
    out = tmp_path / "grid.csv"
    argv = ["sweep", "--corpus", "1", "--corpus-requests", "4", *flags, "--output", str(out)]
    assert main(argv) == 3
    err = capsys.readouterr().err
    assert err.startswith("config error:") and flags[0] in err
    assert not out.exists()


def test_sweep_takes_instance_or_corpus_not_both(tmp_path, capsys):
    with pytest.raises(SystemExit) as exit_:
        main(["sweep", "--corpus", "1", "--instance", str(tmp_path / "nope.txt"),
              "--output", str(tmp_path / "grid.csv")])
    assert exit_.value.code == 2
    assert "not allowed with" in capsys.readouterr().err


def test_sweep_corpus_requests_needs_corpus(tmp_path, capsys):
    out = tmp_path / "grid.csv"
    argv = ["sweep", "--instance", str(FIXTURE), "--corpus-requests", "4", "--output", str(out)]
    assert main(argv) == 3
    assert "config error: only --corpus takes --corpus-requests" in capsys.readouterr().err
    assert not out.exists()


def test_sweep_has_no_single_run_flags(tmp_path, capsys):
    # --fleet-size and --rh-factor abbreviate the grid flags; --seed is unknown
    out = tmp_path / "grid.csv"
    argv = ["sweep", "--corpus", "1", "--corpus-requests", "4", "--output", str(out)]
    assert main(argv + ["--fleet-size", "3", "--rh-factor", "1"]) == 0
    capsys.readouterr()
    rows = out.read_text().splitlines()[1:]
    assert [row.split(",")[1:3] for row in rows] == [["3", "1"]]
    with pytest.raises(SystemExit) as exit_:
        main(argv + ["--seed", "1"])
    assert exit_.value.code == 2
    capsys.readouterr()


@pytest.mark.parametrize("command, flags", [
    ("solve", []),
    ("sweep", ["--fleet-sizes", "2"]),
    ("adapt", []),
])
@pytest.mark.parametrize("target, problem", [
    ("missing/x.json", "no directory"),
    (".", "is a directory"),
])
def test_an_unwritable_output_fails_before_the_run(tmp_path, capsys, monkeypatch,
                                                   command, flags, target, problem):
    monkeypatch.setattr("rollhorizon.cli.run", lambda *a, **k: pytest.fail("ran"))
    out = tmp_path / target
    assert main([command, "--instance", str(FIXTURE), *flags, "--output", str(out)]) == 2
    assert capsys.readouterr().err.startswith(f"error: cannot write {out}: {problem}")
    assert list(tmp_path.iterdir()) == []


def test_sweep_rejects_a_flag_its_file_format_never_takes(tmp_path, capsys, monkeypatch):
    # found once, before any cell, with the exit code solve gives it
    monkeypatch.setattr("rollhorizon.cli.run", lambda *a, **k: pytest.fail("ran"))
    out = tmp_path / "grid.csv"
    argv = ["sweep", "--instance", str(FIXTURE), "--speed", "2", "--fleet-sizes", "2,3",
            "--output", str(out)]
    assert main(argv) == 3
    assert capsys.readouterr().err == "config error: only --format csv takes --speed\n"
    assert not out.exists()
