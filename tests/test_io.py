"""File formats and benchmark tables: JSON round trips, parse and invariant
diagnostics, and the CSV layouts."""

import csv
import json
import random

import pytest

from conftest import single_pair_reference, synthetic_instance
from evrelo.errors import InstanceTooLarge, InvariantViolation, ParseError
from evrelo.exact import OracleLimits
from evrelo.feasibility import validate_solution
from evrelo.generator import make_benchmark, small_instances
from evrelo.insertion import run_ch
from evrelo.io import (
    _collect_instance_violations,
    instance_to_dict,
    load_instance,
    load_solution,
    save_instance,
    save_solution,
    solution_to_dict,
)
from evrelo.model import Parameters, Request, RequestKind, RevenueModel
from evrelo.reporting import (
    ALGORITHMS,
    compare_table,
    frc_sweep,
    run_algorithm,
    size_sweep,
    write_comparison_csv,
    write_sensitivity_csv,
)


# ---------------------------------------------------------------------------
# JSON round trips.
# ---------------------------------------------------------------------------

def test_instance_round_trip_plain(tmp_path):
    inst = single_pair_reference()
    path = tmp_path / "plain.json"
    save_instance(inst, path)
    assert load_instance(path) == inst


def test_instance_round_trip_generated(tmp_path):
    (inst,) = make_benchmark("vamat_like", 1, seed=9)
    path = tmp_path / "generated.json"
    save_instance(inst, path)
    loaded = load_instance(path)
    assert loaded == inst
    assert loaded.revenue_model == inst.revenue_model
    assert loaded.provenance == inst.provenance


def test_instance_round_trip_bit_exact(tmp_path):
    rng = random.Random(17)
    inst = synthetic_instance(rng)
    first = tmp_path / "a.json"
    second = tmp_path / "b.json"
    save_instance(inst, first)
    save_instance(load_instance(first), second)
    assert first.read_bytes() == second.read_bytes()


def test_solution_round_trip(tmp_path):
    inst = single_pair_reference()
    solution = run_ch(inst, objective="requests")
    path = tmp_path / "solution.json"
    save_solution(solution, path)
    loaded = load_solution(path)
    assert loaded == solution
    assert validate_solution(loaded, inst).ok


# ---------------------------------------------------------------------------
# Parse diagnostics.
# ---------------------------------------------------------------------------

def test_missing_file_is_a_parse_error(tmp_path):
    with pytest.raises(ParseError):
        load_instance(tmp_path / "nope.json")


def test_syntax_error_reports_line(tmp_path):
    path = tmp_path / "broken.json"
    path.write_text('{\n  "format_version": 1\n  "requests": []\n}\n',
                    encoding="utf-8")
    with pytest.raises(ParseError) as err:
        load_instance(path)
    assert err.value.line == 3  # the line where the missing comma is noticed


def test_wrong_top_level_and_version(tmp_path):
    path = tmp_path / "list.json"
    path.write_text("[1, 2]\n", encoding="utf-8")
    with pytest.raises(ParseError):
        load_instance(path)
    path2 = tmp_path / "version.json"
    doc = instance_to_dict(single_pair_reference())
    doc["format_version"] = 99
    path2.write_text(json.dumps(doc), encoding="utf-8")
    with pytest.raises(ParseError) as err:
        load_instance(path2)
    assert err.value.field == "format_version"


def test_missing_and_mistyped_fields_name_the_field(tmp_path):
    doc = instance_to_dict(single_pair_reference())
    del doc["parameters"]["duty_time"]
    path = tmp_path / "missing.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    with pytest.raises(ParseError) as err:
        load_instance(path)
    assert err.value.field == "duty_time"

    doc = instance_to_dict(single_pair_reference())
    doc["requests"][0]["tw_min"] = "early"
    path = tmp_path / "typed.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    with pytest.raises(ParseError) as err:
        load_instance(path)
    assert err.value.field == "tw_min"

    doc = instance_to_dict(single_pair_reference())
    doc["requests"][1]["kind"] = "dropoff"
    path = tmp_path / "kind.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    with pytest.raises(ParseError) as err:
        load_instance(path)
    assert err.value.field == "kind"


def test_solution_parse_diagnostics(tmp_path):
    solution = run_ch(single_pair_reference(), objective="requests")
    doc = solution_to_dict(solution)
    doc["optimal"] = "yes"
    path = tmp_path / "opt.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    with pytest.raises(ParseError):
        load_solution(path)

    doc = solution_to_dict(solution)
    doc["served"] = ["one"]
    path2 = tmp_path / "served.json"
    path2.write_text(json.dumps(doc), encoding="utf-8")
    with pytest.raises(ParseError):
        load_solution(path2)


def test_solution_non_finite_numbers_rejected(tmp_path):
    solution = run_ch(single_pair_reference(), objective="requests")
    path = tmp_path / "nan.solution.json"

    def owner(doc, name):
        if name in ("start_time", "end_time"):
            return doc["routes"][0]
        if name in ("arrival", "waiting", "ev_charge"):
            return doc["routes"][0]["visits"][0]
        return doc

    for name in ("start_time", "end_time", "arrival", "waiting", "ev_charge",
                 "total_revenue", "worker_cost", "profit"):
        for value in (float("nan"), float("inf"), float("-inf")):
            doc = solution_to_dict(solution)
            owner(doc, name)[name] = value
            path.write_text(json.dumps(doc), encoding="utf-8")  # NaN/Infinity tokens
            with pytest.raises(ParseError) as err:
                load_solution(path)
            assert err.value.field == name
            assert "must be finite" in str(err.value)

    # A route whose every schedule number is NaN used to load and validate.
    doc = solution_to_dict(solution)
    route = doc["routes"][0]
    route["start_time"] = route["end_time"] = float("nan")
    for visit in route["visits"]:
        visit["arrival"] = visit["waiting"] = float("nan")
        if visit["ev_charge"] is not None:
            visit["ev_charge"] = float("nan")
    path.write_text(json.dumps(doc), encoding="utf-8")
    with pytest.raises(ParseError):
        load_solution(path)


# ---------------------------------------------------------------------------
# Invariant collection.
# ---------------------------------------------------------------------------

def test_invariant_violations_collected_together(tmp_path):
    doc = instance_to_dict(single_pair_reference())
    doc["requests"][0]["battery"] = 1.5          # outside [0, 1]
    doc["requests"][1]["id"] = 1                 # duplicate id
    doc["distances"][0][1] = -2.0                # negative distance
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    with pytest.raises(InvariantViolation) as err:
        load_instance(path)
    text = "\n".join(err.value.violations)
    assert len(err.value.violations) >= 3
    assert "battery" in text
    assert "duplicate id" in text
    assert "negative" in text


def test_triangle_inequality_checked(tmp_path):
    doc = instance_to_dict(single_pair_reference())
    doc["distances"][1][2] = 1000.0
    doc["distances"][2][1] = 1000.0
    path = tmp_path / "triangle.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    with pytest.raises(InvariantViolation) as err:
        load_instance(path)
    assert any("triangle" in v for v in err.value.violations)


def test_non_finite_numbers_rejected(tmp_path):
    (inst,) = make_benchmark("vamat_like", 1, seed=0)
    doc = instance_to_dict(inst)
    doc["parameters"]["duty_time"] = float("nan")
    doc["requests"][0]["tw_max"] = float("inf")
    doc["distances"][1][2] = float("nan")
    doc["distances"][2][1] = float("-inf")
    path = tmp_path / "nan.json"
    path.write_text(json.dumps(doc), encoding="utf-8")  # writes NaN and Infinity tokens
    with pytest.raises(InvariantViolation) as err:
        load_instance(path)
    assert err.value.violations == [
        "parameters.duty_time must be finite, got nan",
        "distances[1][2] must be finite",
        "distances[2][1] must be finite",
        f"request {doc['requests'][0]['id']}: tw_max must be finite, got inf",
    ]


def _triangle_reference(distances):
    n = len(distances)
    return [
        f"triangle inequality broken: distances[{i}][{k}] > "
        f"distances[{i}][{j}] + distances[{j}][{k}]"
        for i in range(n) for j in range(n) for k in range(n)
        if distances[i][k] > distances[i][j] + distances[j][k] + 1e-6
    ]


def test_triangle_messages_match_the_scalar_triple_loop():
    rng = random.Random(3)
    points = [(rng.uniform(0, 10), rng.uniform(0, 10)) for _ in range(9)]
    distances = [[abs(a[0] - b[0]) + abs(a[1] - b[1]) for b in points] for a in points]
    # Stretch a few entries (and one only by less than the tolerance).
    for i, k, factor in ((1, 4, 3.0), (4, 1, 3.0), (2, 7, 1.5), (6, 0, 2.0), (8, 3, 1.0 + 1e-9)):
        distances[i][k] *= factor
    params = {name: 1 for name in ("duty_time", "ev_speed", "bike_speed", "park_time",
                                   "load_time", "full_range", "recharge_time",
                                   "worker_count", "worker_cost")}
    messages = [m for m in _collect_instance_violations(params, [], distances)
                if m.startswith("triangle")]
    assert len(messages) > 4
    assert messages == _triangle_reference(distances)


def test_location_outside_matrix_rejected(tmp_path):
    doc = instance_to_dict(single_pair_reference())
    doc["requests"][0]["location"] = 7
    path = tmp_path / "loc.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    with pytest.raises(InvariantViolation) as err:
        load_instance(path)
    assert any("location" in v for v in err.value.violations)


@pytest.mark.parametrize("section, name, value", [
    ("parameters", "duty_time", float("nan")),
    ("parameters", "ev_speed", 0.0),
    ("parameters", "park_time", -1.0),
    ("parameters", "worker_count", 0),
    ("parameters", "worker_cost", -1.0),
    ("requests", "tw_max", float("inf")),
    ("requests", "tw_min", 1000.0),
    ("requests", "battery", 1.5),
    ("requests", "revenue", -1.0),
    ("revenue_model", "kind", "per_km"),
    ("revenue_model", "amount", float("nan")),
    ("revenue_model", "frc", float("-inf")),
    ("revenue_model", "rent_min", 99.0),
])
def test_load_reports_the_constructor_message(tmp_path, section, name, value):
    doc = instance_to_dict(single_pair_reference())
    if section == "parameters":
        doc["parameters"][name] = value
        with pytest.raises(ValueError) as built:
            Parameters(**doc["parameters"])
    elif section == "revenue_model":
        doc["revenue_model"][name] = value
        with pytest.raises(ValueError) as built:
            RevenueModel(**doc["revenue_model"])
    else:
        raw = doc["requests"][0]
        raw[name] = value
        with pytest.raises(ValueError) as built:
            Request(**{**raw, "kind": RequestKind(raw["kind"])})
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    with pytest.raises(InvariantViolation) as loaded:
        load_instance(path)
    assert loaded.value.violations == [str(built.value)]


# ---------------------------------------------------------------------------
# Algorithm runner and tables.
# ---------------------------------------------------------------------------

def test_run_algorithm_names_cover_every_solver():
    inst = single_pair_reference()
    for name in ALGORITHMS:
        solution, cpu = run_algorithm(name, inst, objective="requests",
                                      iterations=5)
        assert cpu >= 0.0
        assert validate_solution(solution, inst).ok
    with pytest.raises(ValueError):
        run_algorithm("simplex", inst)


@pytest.mark.parametrize("name", ALGORITHMS)
def test_run_algorithm_rejects_an_unknown_objective(name):
    with pytest.raises(ValueError, match="unknown objective"):
        run_algorithm(name, single_pair_reference(), objective="fastest", iterations=1)


def test_compare_table_skips_oversized_instances():
    rng = random.Random(23)
    big = synthetic_instance(rng, n_pairs=6)    # beyond the exact-search cap
    small = small_instances(1, seed=1)[0]
    rows, skipped = compare_table(
        [("small-0", small), ("big-0", big)],
        algorithms=("nnh", "exact"),
        objective="requests",
        iterations=5,
        limits=OracleLimits(),
    )
    assert [label for label, _ in skipped] == ["big-0"]
    assert {r.instance for r in rows} == {"small-0"}
    for row in rows:
        assert row.objective_value <= row.reference_value + 1e-9
        if row.algorithm == "exact":
            assert row.gap_pct in (0.0, None) or row.gap_pct == pytest.approx(0.0)


def test_comparison_csv_layout(tmp_path):
    batch = [(f"inst-{i}", inst) for i, inst in enumerate(small_instances(3, seed=2))]
    rows, skipped = compare_table(batch, algorithms=("nnh", "rh"),
                                  objective="requests", reference="exact",
                                  iterations=10)
    assert not skipped
    path = tmp_path / "comparison.csv"
    write_comparison_csv(rows, ("nnh", "rh"), path)
    with open(path, newline="", encoding="utf-8") as fh:
        table = list(csv.reader(fh, delimiter=","))
    assert table[0] == [
        "instance", "reference_objective",
        "nnh_objective", "nnh_gap_pct", "nnh_delta_workers", "nnh_cpu_s",
        "rh_objective", "rh_gap_pct", "rh_delta_workers", "rh_cpu_s",
    ]
    assert len(table) == 1 + 3 + 1
    assert table[-1][0] == "AVERAGE"
    for line in table[1:]:
        for cell in line[1:]:
            if cell:
                assert "," not in cell
                float(cell)  # dot-decimal numbers throughout


def test_frc_sweep_rows(tmp_path):
    batch = [
        (f"v-{i}", inst)
        for i, inst in enumerate(
            small_instances(2, seed=5, revenue_model=RevenueModel(kind="vrc_frc"))
        )
    ]
    rows = frc_sweep(batch, frc_values=(0.0, 15.0), algorithm="ch",
                     objective="profit")
    assert len(rows) == 4
    assert {r.value for r in rows} == {0.0, 15.0}
    for row in rows:
        assert row.parameter == "frc"
        assert 0.0 <= row.served_pct <= 100.0
        assert row.served % 2 == 0

    path = tmp_path / "sens.csv"
    write_sensitivity_csv(rows, path)
    with open(path, newline="", encoding="utf-8") as fh:
        table = list(csv.reader(fh, delimiter=","))
    assert table[0] == ["parameter", "value", "instance", "algorithm",
                        "profit", "served", "served_pct", "workers", "cpu_s"]
    averages = [line for line in table[1:] if line[2] == "AVERAGE"]
    assert len(averages) == 2  # one per swept value
    assert len(table) == 1 + 4 + 2


def test_size_sweep_reports_instance_sizes():
    batch = [(f"s-{i}", inst) for i, inst in enumerate(small_instances(2, seed=6))]
    rows = size_sweep(batch, algorithm="nnh", objective="requests")
    assert [row.value for row in rows] == [
        float(len(inst.requests)) for _, inst in batch
    ]
