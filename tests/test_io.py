"""File formats and benchmark tables: JSON round trips, parse and invariant
diagnostics, and the CSV layouts."""

import csv
import dataclasses
import json
import math
import random

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from conftest import single_pair_reference, synthetic_instance
from evrelo import io, model
from evrelo.errors import InvariantViolation, ParseError
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


def test_a_save_that_fails_to_encode_keeps_the_earlier_file(tmp_path):
    # A numpy integer is no JSON number: the encoder raises, and the file
    # written before keeps its bytes instead of a prefix of the new one.
    inst = single_pair_reference()
    solution = run_ch(inst, objective="requests")
    unencodable = [
        (save_instance, inst, dataclasses.replace(inst, provenance={"seed": np.int64(3)})),
        (save_solution, solution, dataclasses.replace(solution, total_revenue=np.int64(40))),
    ]
    for save, document, broken in unencodable:
        path = tmp_path / f"{save.__name__}.json"
        save(document, path)
        before = path.read_bytes()
        with pytest.raises(TypeError):
            save(broken, path)
        assert path.read_bytes() == before


# ---------------------------------------------------------------------------
# The writers' bytes are the standard encoder's.
# ---------------------------------------------------------------------------

class _Float(float):
    """A float whose own repr is no JSON: ``json`` writes ``float.__repr__``."""

    def __repr__(self):
        return "_Float()"


class _Int(int):
    """An int whose own repr is no JSON: ``json`` writes ``int.__repr__``."""

    def __repr__(self):
        return "_Int()"


def _and_subclass(values, subclass):
    return st.one_of(values, values.map(subclass))


_ANY_FLOAT = _and_subclass(st.one_of(st.floats(), st.sampled_from([math.nan, math.inf,
                                                                    -math.inf, -0.0])), _Float)
_INT = _and_subclass(st.integers(), _Int)
_VISITS = st.builds(model.ScheduledVisit, request_id=_INT, arrival=_ANY_FLOAT,
                    waiting=_ANY_FLOAT, ev_charge=st.none() | _ANY_FLOAT)
_ROUTES = st.builds(model.RouteSchedule, worker=_INT, start_time=_ANY_FLOAT,
                    visits=st.lists(_VISITS, max_size=3), end_time=_ANY_FLOAT)
_SOLUTIONS = st.builds(
    model.Solution, routes=st.lists(_ROUTES, max_size=3),
    served=st.frozensets(_INT, max_size=4), rejected=st.frozensets(_INT, max_size=4),
    total_revenue=_ANY_FLOAT, worker_cost=_ANY_FLOAT, profit=_ANY_FLOAT,
    optimal=st.sampled_from([True, False, None]))

_FINITE = _and_subclass(st.floats(allow_nan=False, allow_infinity=False), _Float)
_POSITIVE = _and_subclass(st.floats(min_value=1e-3, max_value=1e6), _Float)
_NON_NEGATIVE = _POSITIVE | st.sampled_from([0.0, -0.0])
_PROVENANCE = st.none() | st.recursive(
    st.none() | st.booleans() | st.floats() | st.integers() | st.text(),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(), inner, max_size=3),
    max_leaves=8)


@st.composite
def _instances(draw):
    """An instance of up to 4 locations.  The constructors check no matrix
    entry, so the matrix holds any JSON number, NaN and infinities too."""
    n = draw(st.integers(min_value=0, max_value=4))
    entry = _ANY_FLOAT | _INT | st.booleans() | st.none()
    distances = [[draw(entry) for _ in range(n)] for _ in range(n)]
    parameters = Parameters(
        **{name: draw(_POSITIVE) for name in ("duty_time", "ev_speed", "bike_speed",
                                               "full_range", "recharge_time")},
        **{name: draw(_NON_NEGATIVE) for name in ("park_time", "load_time", "worker_cost")},
        worker_count=draw(_and_subclass(st.integers(min_value=1, max_value=50), _Int)))
    ids = draw(st.lists(_INT, unique=True, max_size=4 if n > 1 else 0))
    requests = []
    for rid in ids:
        tw_min, tw_max = sorted([draw(_FINITE), draw(_FINITE)])
        requests.append(Request(
            id=rid, kind=draw(st.sampled_from(RequestKind)),
            location=draw(st.integers(min_value=1, max_value=n - 1)),
            tw_min=tw_min, tw_max=tw_max,
            battery=draw(_and_subclass(st.floats(min_value=0.0, max_value=1.0), _Float)),
            revenue=draw(_NON_NEGATIVE)))
    revenue_model = None
    if draw(st.booleans()):
        rent_min, rent_max = sorted([draw(_FINITE), draw(_FINITE)])
        revenue_model = RevenueModel(
            kind=draw(st.sampled_from(["flat", "vrc_frc"])), amount=draw(_FINITE),
            rate_per_min=draw(_FINITE), rent_min=rent_min, rent_max=rent_max,
            frc=draw(_FINITE))
    return model.Instance(parameters=parameters, requests=tuple(requests),
                          distances=distances, revenue_model=revenue_model,
                          provenance=draw(_PROVENANCE))


_EDGE_SOLUTION = model.Solution(
    routes=(
        model.RouteSchedule(worker=_Int(0), start_time=-0.0, end_time=math.inf, visits=(
            model.ScheduledVisit(request_id=1, arrival=math.nan, waiting=_Float(2.5),
                                 ev_charge=None),
            model.ScheduledVisit(request_id=_Int(2), arrival=-math.inf, waiting=0.0,
                                 ev_charge=_Float(math.nan)),
        )),
        model.RouteSchedule(worker=1, start_time=0.0, end_time=1e-300, visits=()),
    ),
    served=frozenset({1, _Int(2)}), rejected=frozenset(), total_revenue=math.nan,
    worker_cost=_Float(-math.inf), profit=-0.0, optimal=False)

_EDGE_INSTANCE = dataclasses.replace(
    single_pair_reference(),
    distances=((0.0, _Float(5.0), 18), (math.nan, -0.0, math.inf), (-math.inf, _Int(20), 0.0)),
    provenance={"städte": ["Zürich", {"ø": [1.5, None, True, -0.0]}], "leer": {}, "": []})


@given(st.one_of(_SOLUTIONS, _instances()))
@example(_EDGE_SOLUTION)
@example(dataclasses.replace(_EDGE_SOLUTION, routes=(), served=frozenset(), optimal=None))
@example(dataclasses.replace(_EDGE_SOLUTION, optimal=True))
@example(_EDGE_INSTANCE)
@example(dataclasses.replace(_EDGE_INSTANCE, requests=(), provenance=None))
@settings(max_examples=300)
def test_the_writers_write_the_standard_encoders_bytes(tmp_path_factory, document):
    if isinstance(document, model.Solution):
        save, to_dict = save_solution, solution_to_dict
    else:
        save, to_dict = save_instance, instance_to_dict
    path = tmp_path_factory.getbasetemp() / "written.json"
    save(document, path)
    assert path.read_bytes() == (json.dumps(to_dict(document), indent=2) + "\n").encode("utf-8")


@pytest.mark.parametrize("save, document", [
    (save_instance, single_pair_reference()),
    (save_solution, run_ch(single_pair_reference(), objective="requests")),
], ids=["instance", "solution"])
def test_a_save_makes_a_missing_directory_and_no_other(tmp_path, save, document):
    path = tmp_path / "a" / "b" / "c.json"
    save(document, path)
    written = path.read_bytes()
    save(document, path)  # the directory is there now
    assert path.read_bytes() == written
    to_dict = instance_to_dict if save is save_instance else solution_to_dict
    assert written == (json.dumps(to_dict(document), indent=2) + "\n").encode("utf-8")

    # A parent that is a regular file, or lies below one, is no directory:
    # the save fails and the file keeps its bytes.
    blocker = tmp_path / "blocker"
    blocker.write_text("kept", encoding="utf-8")
    for target in (blocker / "c.json", blocker / "d" / "c.json"):
        with pytest.raises(OSError):
            save(document, target)
    assert blocker.read_text(encoding="utf-8") == "kept"


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


@pytest.mark.parametrize("name", ["served", "rejected"])
@pytest.mark.parametrize("listed, message", [
    ([True, 2], "must hold request ids"),
    ([1.0, 2], "must hold request ids"),
    ([2, 2], "more than once"),
], ids=["bool", "float", "repeat"])
def test_solution_ids_fail_closed(tmp_path, name, listed, message):
    # A bool would load as request 1 and a repeated id would collapse, both
    # into a solution that validates.
    solution = run_ch(single_pair_reference(), objective="requests")
    doc = solution_to_dict(solution)
    doc[name] = listed
    path = tmp_path / "ids.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    with pytest.raises(ParseError, match=message) as err:
        load_solution(path)
    assert err.value.field == name


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


def _mixed_matrix_document(with_nan):
    """A document whose matrix breaks every entry rule at once: an
    int-valued row, a negative entry, a nonzero diagonal, a broken
    triangle and, optionally, a NaN; plus a parameter and a request rule."""
    doc = instance_to_dict(single_pair_reference())
    doc["parameters"]["duty_time"] = -1.0
    doc["requests"][0]["battery"] = 1.5
    doc["distances"] = [
        [0.0, 5.0, 40.0, 7.0, 9.0],
        [5, 0, 20, 4, 6],
        [18.0, 20.0, 0.0, 15.0, -1.0],
        [7.0, 4.0, 15.0, 0.5, 3.0],
        [9.0, float("nan") if with_nan else 6.0, 13.0, 3.0, 0.0],
    ]
    return doc


_MIXED_HEAD = [
    "parameters.duty_time must be strictly positive, got -1.0",
    "distances[2][4] is negative",
    "distances[3][3] must be zero",
]
_MIXED_TAIL = ["request 1: battery 1.5 outside [0, 1]"]


@pytest.mark.parametrize("with_nan, matrix_tail", [
    # A NaN fails every comparison, so the triangle check is skipped.
    (True, ["distances[4][1] must be finite"]),
    (False, [
        f"triangle inequality broken: distances[{i}][{k}] > "
        f"distances[{i}][{j}] + distances[{j}][{k}]"
        for i, j, k in ((0, 1, 2), (0, 3, 2), (0, 4, 2), (1, 3, 2), (1, 4, 2),
                        (2, 3, 1), (2, 4, 0), (2, 4, 1), (2, 4, 3))
    ]),
])
def test_every_matrix_message_in_order(tmp_path, with_nan, matrix_tail):
    path = tmp_path / "mixed.json"
    path.write_text(json.dumps(_mixed_matrix_document(with_nan)), encoding="utf-8")
    with pytest.raises(InvariantViolation) as err:
        load_instance(path)
    assert err.value.violations == _MIXED_HEAD + matrix_tail + _MIXED_TAIL


def test_a_bool_distance_is_a_parse_error(tmp_path):
    doc = _mixed_matrix_document(False)
    doc["distances"][3][2] = True
    path = tmp_path / "bool.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    with pytest.raises(ParseError) as err:
        load_instance(path)
    assert str(err.value) == "distances[3][2] must be a number (field 'distances')"
    assert err.value.field == "distances"


def test_entries_within_tolerance_load(tmp_path):
    """The clean check allows what the scalar rules allow: a diagonal within
    EPS of zero, a negative zero, an int-valued row."""
    doc = instance_to_dict(single_pair_reference())
    doc["distances"] = [[1e-7, 5, 18], [5.0, -0.0, 20.0], [18.0, 20.0, 0.0]]
    path = tmp_path / "tolerance.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    loaded = load_instance(path)
    assert loaded.distances == ((1e-7, 5.0, 18.0), (5.0, -0.0, 20.0), (18.0, 20.0, 0.0))
    assert all(type(v) is float for row in loaded.distances for v in row)


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


@pytest.mark.parametrize("block", [None, 1, 3 * 50 * 50 - 1])
def test_triangle_blocks_keep_the_messages_of_the_triple_loop(monkeypatch, block):
    # 50 rows at 2,500 elements a row make four blocks of the default bound;
    # a bound below one row tests a row at a time, and the last one makes
    # blocks of two rows.  Broken triples sit in the first, a middle and the
    # last row.
    if block is not None:
        monkeypatch.setattr(io, "_TRIANGLE_BLOCK", block)
    n = 50
    assert io._TRIANGLE_BLOCK // (n * n) < n // 2
    rng = random.Random(11)
    points = [(rng.uniform(0, 10), rng.uniform(0, 10)) for _ in range(n)]
    distances = [[abs(a[0] - b[0]) + abs(a[1] - b[1]) for b in points] for a in points]
    for i, k, factor in ((0, 7, 2.5), (23, 31, 1.8), (n - 1, 4, 3.0), (n - 1, n - 2, 2.0)):
        distances[i][k] *= factor
    messages = io._triangle_violations(np.array(distances))
    assert any(m.startswith(f"triangle inequality broken: distances[{n - 1}]") for m in messages)
    assert messages == _triangle_reference(distances)


def _matrix_reference(distances):
    """The matrix messages as the plain scalar loops state them."""
    n = len(distances)
    bad = []
    for i in range(n):
        if abs(distances[i][i]) > 1e-6:
            bad.append(f"distances[{i}][{i}] must be zero")
        for j in range(n):
            if not math.isfinite(distances[i][j]):
                bad.append(f"distances[{i}][{j}] must be finite")
            elif distances[i][j] < 0:
                bad.append(f"distances[{i}][{j}] is negative")
    if all(math.isfinite(v) for row in distances for v in row):
        bad += _triangle_reference(distances)
    return bad


_ENTRIES = st.sampled_from([0.0, -0.0, 1e-7, -1e-7, 2e-6, 1.0, 3.0, 9.0, -1.0,
                            math.nan, math.inf, -math.inf])


@given(st.integers(min_value=0, max_value=5).flatmap(
    lambda n: st.lists(st.lists(_ENTRIES, min_size=n, max_size=n), min_size=n, max_size=n)))
def test_matrix_messages_match_the_scalar_loops(distances):
    params = {name: 1 for name in ("duty_time", "ev_speed", "bike_speed", "park_time",
                                   "load_time", "full_range", "recharge_time",
                                   "worker_count", "worker_cost")}
    assert _collect_instance_violations(params, [], distances) == _matrix_reference(distances)


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


def test_load_runs_the_request_rules_once_per_valid_request(tmp_path, monkeypatch):
    # A valid request is checked once, when its Request is built; the
    # Instance does not check it again.  A request the constructor refuses
    # is checked once more, so that every rule it breaks is listed.
    inst = synthetic_instance(random.Random(5))
    path = tmp_path / "inst.json"
    save_instance(inst, path)
    rules = model.request_violations
    checked = []
    monkeypatch.setattr(model, "request_violations", lambda r: checked.append(r.id) or rules(r))
    assert load_instance(path) == inst
    assert sorted(checked) == sorted(r.id for r in inst.requests)

    doc = instance_to_dict(inst)
    refused = doc["requests"][2]
    refused["tw_min"], refused["battery"] = refused["tw_max"] + 1.0, 1.5
    path.write_text(json.dumps(doc), encoding="utf-8")
    checked.clear()
    with pytest.raises(InvariantViolation) as err:
        load_instance(path)
    assert sorted(checked) == sorted([refused["id"], *(r.id for r in inst.requests)])
    assert err.value.violations == [
        f"request {refused['id']}: tw_min {refused['tw_min']} exceeds tw_max {refused['tw_max']}",
        f"request {refused['id']}: battery 1.5 outside [0, 1]",
    ]


_SHARED_RULES = ("parameter_violations", "matrix_shape_violations",
                 "request_set_violations", "revenue_model_violations")


def test_load_runs_each_shared_rule_once_on_a_clean_file(tmp_path, monkeypatch):
    # The constructors check a clean file; the rules run a second time only
    # to list every message of a file that breaks one, here an entry rule.
    (inst,) = make_benchmark("vamat_like", 1, seed=4)
    path = tmp_path / "inst.json"
    save_instance(inst, path)
    calls = []
    for name in _SHARED_RULES:
        rule = getattr(model, name)
        counted = (lambda *args, rule=rule, name=name: calls.append(name) or rule(*args))
        monkeypatch.setattr(model, name, counted)
        monkeypatch.setattr(io, name, counted)
    assert load_instance(path) == inst
    assert sorted(calls) == sorted(_SHARED_RULES)

    doc = instance_to_dict(inst)
    doc["distances"][1][2] = -1.0
    path.write_text(json.dumps(doc), encoding="utf-8")
    calls.clear()
    with pytest.raises(InvariantViolation) as err:
        load_instance(path)
    assert sorted(calls) == sorted(_SHARED_RULES * 2)
    assert err.value.violations[0] == "distances[1][2] is negative"


_REQUEST_FIELD_KINDS = {"id": "integer", "kind": "kind", "location": "integer", "tw_min": "number",
                        "tw_max": "number", "battery": "number", "revenue": "number"}


def _mistyped_message(name, value):
    """The ParseError text a request field of the wrong type gives."""
    kind = _REQUEST_FIELD_KINDS[name]
    if kind == "kind":
        return ("requests[1].kind must be 'pickup' or 'delivery'" if isinstance(value, str)
                else "requests[1].kind has the wrong type")
    return f"requests[1].{name} must be {'an integer' if kind == 'integer' else 'a number'}"


@pytest.mark.parametrize("name", list(_REQUEST_FIELD_KINDS))
def test_a_mistyped_request_field_is_the_same_parse_error(tmp_path, name):
    path = tmp_path / "typed.json"
    for value in (True, "early"):
        doc = instance_to_dict(single_pair_reference())
        doc["requests"][1][name] = value
        path.write_text(json.dumps(doc), encoding="utf-8")
        with pytest.raises(ParseError) as err:
            load_instance(path)
        assert (err.value.args[0], err.value.field) == (_mistyped_message(name, value), name)

    doc = instance_to_dict(single_pair_reference())
    del doc["requests"][1][name]
    path.write_text(json.dumps(doc), encoding="utf-8")
    with pytest.raises(ParseError) as err:
        load_instance(path)
    assert (err.value.args[0], err.value.field) == ("missing field in requests[1]", name)


@pytest.mark.parametrize("record", [[1, 2], "pickup", None, 7])
def test_a_request_record_that_is_no_object_is_a_parse_error(tmp_path, record):
    doc = instance_to_dict(single_pair_reference())
    doc["requests"][1] = record
    path = tmp_path / "record.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    with pytest.raises(ParseError) as err:
        load_instance(path)
    assert (err.value.args[0], err.value.field) == ("requests[1] must be an object", "requests[1]")


@pytest.mark.parametrize("name", ["tw_min", "tw_max", "battery", "revenue"])
def test_an_int_in_a_request_float_field_loads_as_a_float(tmp_path, name):
    inst = single_pair_reference()
    doc = instance_to_dict(inst)
    value = {"battery": 1, "revenue": 25}.get(name, int(doc["requests"][0][name]))
    doc["requests"][0][name] = value
    path = tmp_path / "int.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    loaded = getattr(load_instance(path).requests[0], name)
    assert type(loaded) is float and loaded == value


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
