import dataclasses
import json
import random
from pathlib import Path

import pytest

from instgen import random_instance
from rollhorizon.engine import run
from rollhorizon.instance_io import (
    ParseError,
    adapt_benchmark,
    load_csv_requests,
    load_lilim,
    load_report_dict,
    report_violations,
    write_report,
)
from rollhorizon.travel import EuclideanTravel

DATA = Path(__file__).parent / "data"
FIXTURE = DATA / "synthetic_pd_small.txt"


def test_load_lilim_fixture():
    inst = load_lilim(FIXTURE)
    assert inst.name == "synthetic_pd_small"
    assert len(inst.vehicles) == 3
    assert all(v.capacity == 50 for v in inst.vehicles)
    assert inst.native_horizon == 120 * 60
    assert inst.travel.speed == 1.0
    assert [r.id for r in inst.requests] == [1, 2, 5]
    by_id = {r.id: r for r in inst.requests}
    assert by_id[1].desired_pickup_time == 600
    assert by_id[1].pickup == dataclasses.replace(by_id[1].pickup, x=1.0, y=2.0)
    assert by_id[1].dropoff.x == 2.0 and by_id[1].dropoff.y == 3.0
    assert by_id[1].load == 10
    assert by_id[5].desired_pickup_time == 3600
    # earliest dropoff is desired plus the direct ride
    direct = inst.travel.travel_time(by_id[2].pickup, by_id[2].dropoff)
    assert by_id[2].earliest_dropoff_time == 1500 + direct
    assert all(v.depot.x == 5.0 and v.depot.y == 5.0 for v in inst.vehicles)
    # each of the six non-depot rows is one end of exactly one request
    assert [(r.pickup.x, r.pickup.y, r.dropoff.x, r.dropoff.y, r.load)
            for r in inst.requests] == [(1, 2, 2, 3, 10), (8, 8, 9, 9, 20), (4, 4, 3, 7, 15)]


def test_load_lilim_fleet_override():
    inst = load_lilim(FIXTURE, fleet_size=5)
    assert len(inst.vehicles) == 5


def lilim_lines():
    return FIXTURE.read_text().splitlines()


def write_variant(tmp_path, lines):
    p = tmp_path / "variant.txt"
    p.write_text("\n".join(lines) + "\n")
    return p


def test_load_lilim_rejects_broken_pairings(tmp_path):
    lines = lilim_lines()
    # delivery 3 claims pickup 2 instead of 1
    bad = [ln.replace("3\t2\t3\t-10\t0\t120\t5\t1\t0",
                      "3\t2\t3\t-10\t0\t120\t5\t2\t0") for ln in lines]
    with pytest.raises(ParseError, match="paired"):
        load_lilim(write_variant(tmp_path, bad))

    # pickup 5 names a missing delivery node
    bad = [ln.replace("1\t1\t2\t10\t10\t120\t5\t0\t3",
                      "1\t1\t2\t10\t10\t120\t5\t0\t99") for ln in lines]
    with pytest.raises(ParseError, match="missing delivery"):
        load_lilim(write_variant(tmp_path, bad))

    # delivery demand must negate the pickup demand
    bad = [ln.replace("3\t2\t3\t-10\t0\t120\t5\t1\t0",
                      "3\t2\t3\t-9\t0\t120\t5\t1\t0") for ln in lines]
    with pytest.raises(ParseError, match="negate"):
        load_lilim(write_variant(tmp_path, bad))


def test_load_lilim_rejects_malformed_rows(tmp_path):
    with pytest.raises(ParseError, match="empty"):
        load_lilim(write_variant(tmp_path, [""]))
    with pytest.raises(ParseError, match="9 fields"):
        load_lilim(write_variant(tmp_path, ["1\t10\t1", "0\t0\t0\t0\t0\t120\t0\t0"]))
    with pytest.raises(ParseError, match="depot"):
        load_lilim(write_variant(
            tmp_path, ["1\t10\t1", "1\t1\t2\t10\t10\t120\t5\t0\t2",
                       "2\t2\t3\t-10\t0\t120\t5\t1\t0"]))
    with pytest.raises(ParseError, match="variant.txt:1: non-finite"):
        load_lilim(write_variant(tmp_path, ["1\t10\tnan", "0\t0\t0\t0\t0\t120\t0\t0\t0"]))
    with pytest.raises(ParseError, match="variant.txt:2: non-finite"):
        load_lilim(write_variant(tmp_path, ["1\t10\t1", "0\tinf\t0\t0\t0\t120\t0\t0\t0"]))


def test_adapt_benchmark_scales_by_native_day():
    inst = load_lilim(FIXTURE)
    adapted = adapt_benchmark(inst)
    ov = adapted.config_overrides
    # native day is 7200s, a sixth of the 12-hour reference: allowances shrink 6x
    assert ov["max_wait"] == 300
    assert ov["max_delay"] == 300
    assert ov["dwell"] == 50
    assert ov["capacity"] == 50
    again = adapt_benchmark(adapted)
    assert again.config_overrides == ov


def test_adapt_benchmark_requires_horizon():
    inst = load_lilim(FIXTURE)
    no_h = dataclasses.replace(inst, native_horizon=None)
    with pytest.raises(ValueError, match="horizon"):
        adapt_benchmark(no_h)


CSV_GOOD = """id,pickup_x,pickup_y,dropoff_x,dropoff_y,desired_pickup_min
1,0.0,0.0,3.0,4.0,2
7,1.5,2.5,0.5,0.5,10.5
"""


def test_load_csv_requests(tmp_path):
    p = tmp_path / "trips.csv"
    p.write_text(CSV_GOOD)
    inst = load_csv_requests(p, EuclideanTravel(1.0))
    assert [r.id for r in inst.requests] == [1, 7]
    assert inst.requests[0].desired_pickup_time == 120
    assert inst.requests[0].earliest_dropoff_time == 120 + 300
    assert inst.requests[1].desired_pickup_time == 630
    assert inst.vehicles == ()


@pytest.mark.parametrize("text,frag", [
    ("", "empty"),
    ("id,px\n", "header"),
    (CSV_GOOD + "1,0,0,1,1,5\n", "duplicate"),
    (CSV_GOOD + "9,0,0,1,1,-2\n", "negative"),
    (CSV_GOOD + "9,zero,0,1,1,5\n", "numeric"),
    (CSV_GOOD + "9,nan,0,1,1,5\n", "bad.csv:4: non-finite"),
    (CSV_GOOD + "9,0,0,1,inf,5\n", "bad.csv:4: non-finite"),
    (CSV_GOOD + "9,0,0,1,1,nan\n", "bad.csv:4: non-finite"),
    (CSV_GOOD + "9,0,0,1,1,inf\n", "bad.csv:4: non-finite"),
    (CSV_GOOD + "9,0,0,1,1\n", "columns"),
])
def test_load_csv_rejects(tmp_path, text, frag):
    p = tmp_path / "bad.csv"
    p.write_text(text)
    with pytest.raises(ParseError, match=frag):
        load_csv_requests(p, EuclideanTravel(1.0))


def small_report(seed=5):
    rng = random.Random(seed)
    inst, config = random_instance(rng, max_requests=8, max_vehicles=2)
    return run(inst, config)


def test_write_report_json_is_deterministic(tmp_path):
    rep = small_report()
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    write_report(rep, a)
    write_report(rep, b)
    assert a.read_bytes() == b.read_bytes()
    doc = json.loads(a.read_text())
    assert "timing" not in doc
    assert doc["schema_version"] == 1
    assert len(doc["records"]) == len(rep.requests)
    assert doc["config"]["step_s"] == rep.config.step

    timed = tmp_path / "t.json"
    write_report(rep, timed, include_timing=True)
    tdoc = json.loads(timed.read_text())
    assert "timing" in tdoc
    assert len(tdoc["timing"]["iteration_times_s"]) == rep.summary.iterations


def test_write_report_csv(tmp_path):
    rep = small_report()
    out = tmp_path / "run.csv"
    write_report(rep, out, format="csv")
    lines = out.read_text().splitlines()
    assert lines[0].startswith("request_id,served")
    assert len(lines) == 1 + len(rep.requests)
    summary = (tmp_path / "run.summary.csv").read_text().splitlines()
    assert summary[0].startswith("requests_total")
    assert str(rep.summary.requests_total) in summary[1]


def test_report_violations_clean_and_corrupted(tmp_path):
    rep = small_report()
    out = tmp_path / "r.json"
    write_report(rep, out)
    doc = load_report_dict(out)
    assert report_violations(doc) == []

    served = [r for r in doc["records"] if r["served"]]
    if served:
        served[0]["actual_pickup_s"] -= 1
        assert report_violations(doc) != []

    doc2 = load_report_dict(out)
    if doc2["routes"] and doc2["routes"][0]["stops"]:
        doc2["routes"][0]["stops"].reverse()
        assert report_violations(doc2) != []

    doc3 = load_report_dict(out)
    doc3["routes"][0]["committed_prefix_len"] = 0
    if doc3["routes"][0]["stops"]:
        assert any("fully committed" in p for p in report_violations(doc3))


def test_load_report_dict_rejects_bad_json(tmp_path):
    p = tmp_path / "x.json"
    p.write_text("{nope")
    with pytest.raises(ParseError):
        load_report_dict(p)
