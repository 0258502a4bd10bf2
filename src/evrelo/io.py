"""Instance and solution files.

Versioned UTF-8 JSON documents.  A file holds exactly the text of
``json.dumps(document, indent=2)`` plus a newline, where the document is
``instance_to_dict`` or ``solution_to_dict``; floats are written as
``float.__repr__`` writes them (the shortest text that reads back as the
same float), which makes save/load bit-exact.  The standard encoder runs its
pure-Python path whenever it indents, so the writers render that text
themselves: one scalar formatter writes every number, ``null``, boolean and
string as ``json`` does.  The distance matrix goes through the C encoder a
row at a time, and the free-form ``provenance`` through ``json.dumps``.

Loading an instance validates the whole document and reports every violated
invariant at once, not just the first.
"""

from __future__ import annotations

import functools
import json
import math
from dataclasses import fields
from pathlib import Path
from types import SimpleNamespace

import numpy as np

from .errors import IndexOutOfRange, InvalidInstance, InvariantViolation, ParseError
from .model import (
    EPS,
    Instance,
    Parameters,
    Request,
    RequestKind,
    RevenueModel,
    RouteSchedule,
    ScheduledVisit,
    Solution,
    matrix_shape_violations,
    parameter_violations,
    request_set_violations,
    revenue_model_violations,
)

FORMAT_VERSION = 1

_PARAMETER_FIELDS, _REQUEST_FIELDS, _REVENUE_FIELDS = (
    tuple(f.name for f in fields(cls)) for cls in (Parameters, Request, RevenueModel)
)
# The JSON type of each request field, in field order (all but three are
# numbers): a record whose values have exactly these types needs no
# ``_field`` conversion.
_REQUEST_TYPES = tuple({"id": int, "kind": str, "location": int}.get(name, float)
                       for name in _REQUEST_FIELDS)
_REQUEST_KINDS = {kind.value: kind for kind in RequestKind}
_FLOAT_TYPE = {float}
# Elements of one ``_triangle_violations`` block: a few rows of the n^3 cube
# per numpy call, with temporaries of 256 KiB each.
_TRIANGLE_BLOCK = 1 << 15


def _field(mapping, name, kinds, where):
    if not isinstance(mapping, dict):
        raise ParseError(f"{where} must be an object", field=where)
    if name not in mapping:
        raise ParseError(f"missing field in {where}", field=name)
    value = mapping[name]
    if kinds is float:
        if isinstance(value, bool) or not isinstance(value, (int, float)):
            raise ParseError(f"{where}.{name} must be a number", field=name)
        return float(value)
    if kinds is int:
        if isinstance(value, bool) or not isinstance(value, int):
            raise ParseError(f"{where}.{name} must be an integer", field=name)
        return value
    if not isinstance(value, kinds):
        raise ParseError(f"{where}.{name} has the wrong type", field=name)
    return value


def _read_json(path):
    try:
        text = Path(path).read_text(encoding="utf-8")
    except OSError as exc:
        raise ParseError(f"cannot read {path}: {exc.strerror or exc}") from exc
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise ParseError(exc.msg, line=exc.lineno) from exc


# The text of a dict key or a string value; only the schemas' keys and the
# request and revenue-model kinds reach it, so it holds a few dozen entries.
_string = functools.cache(json.dumps)
_NON_FINITE = {"nan": "NaN", "inf": "Infinity", "-inf": "-Infinity"}


def _scalar(value):
    """``value`` as ``json.dumps`` writes it: ``null``, ``true``/``false``,
    a string, ``int.__repr__`` or ``float.__repr__`` with ``NaN`` and
    ``Infinity``/``-Infinity`` (subclasses of int and float included).
    Anything else is no JSON scalar: TypeError, as from ``json.dumps``."""
    kind = type(value)
    if kind is int:
        return repr(value)
    if kind is float or isinstance(value, float):
        # Not repr for a subclass, which may override it.
        text = repr(value) if kind is float else float.__repr__(value)
        return _NON_FINITE.get(text, text)
    if kind is bool:
        return "true" if value else "false"
    if isinstance(value, int):
        return int.__repr__(value)
    if value is None:
        return "null"
    if isinstance(value, str):
        return _string(value)
    raise TypeError(f"Object of type {type(value).__name__} is not JSON serializable")


def _block(items, pad, brackets):
    """Rendered ``items`` laid out between ``brackets`` as
    ``json.dumps(..., indent=2)`` lays out a container indented by ``pad``."""
    if not items:
        return brackets
    inner = "\n" + pad + "  "
    return brackets[0] + inner + ("," + inner).join(items) + "\n" + pad + brackets[1]


def _text(value, pad=""):
    """``json.dumps(value, indent=2)`` for dicts with str keys, lists and
    scalars, nested at indent ``pad``."""
    kind = type(value)
    if kind is dict:
        inner = pad + "  "
        return _block([f"{_string(k)}: {_text(v, inner)}" for k, v in value.items()], pad, "{}")
    if kind is list:
        inner = pad + "  "
        return _block([_text(v, inner) for v in value], pad, "[]")
    return _scalar(value)


def _write(text, path):
    """Write ``text`` to ``path``, making its directory only when it is
    missing.  The caller encodes the whole document first: a document that
    fails to encode leaves an earlier file as it was."""
    try:
        file = open(path, "w", encoding="utf-8")
    except FileNotFoundError:
        Path(path).parent.mkdir(parents=True, exist_ok=True)
        file = open(path, "w", encoding="utf-8")
    with file:
        file.write(text)


# ---------------------------------------------------------------------------
# Instances.
# ---------------------------------------------------------------------------

def instance_to_dict(instance):
    # Fields are read with getattr, not ``vars``: on CPython 3.11 ``vars``
    # materialises an object's attribute dict, after which every attribute
    # read of it is slower.
    model = instance.revenue_model
    return {
        "format_version": FORMAT_VERSION,
        "parameters": {f: getattr(instance.parameters, f) for f in _PARAMETER_FIELDS},
        "requests": [
            {f: getattr(r, f) for f in _REQUEST_FIELDS} | {"kind": r.kind.value}
            for r in instance.requests
        ],
        "distances": [list(row) for row in instance.distances],
        "revenue_model": None if model is None else {
            f: getattr(model, f) for f in _REVENUE_FIELDS
        },
        "provenance": instance.provenance,
    }


# Between the entries of a distance row, which sits at depth 2 of the file.
_ROW_SEPARATORS = (",\n      ", ": ")


def _matrix_text(rows):
    """The distance rows as they sit at depth 1 of the file.  The C encoder
    writes each row, with the separator that indents its entries; a row of
    numbers holds no other comma and no newline, so this is exact.  A square
    matrix has no empty row."""
    return _block([f"[\n      {json.dumps(row, separators=_ROW_SEPARATORS)[1:-1]}\n    ]"
                   for row in rows], "  ", "[]")


def save_instance(instance, path):
    members = []
    for key, value in instance_to_dict(instance).items():
        if key == "distances":
            text = _matrix_text(value)
        elif key == "provenance":
            # Free-form: the standard encoder writes it.  A JSON string holds
            # no raw newline, so re-indenting its text line by line is exact.
            text = json.dumps(value, indent=2).replace("\n", "\n  ")
        else:
            text = _text(value, "  ")
        members.append(f"{_string(key)}: {text}")
    _write(_block(members, "", "{}") + "\n", path)


def _triangle_violations(d):
    """Messages for every (i, j, k) with d[i][k] > d[i][j] + d[j][k] + EPS,
    in i, j, k order, for a square float array ``d``.  One numpy call tests
    a block of rows ``i``, as many as fit ``_TRIANGLE_BLOCK`` elements of
    the n^3 cube (at least one), so memory stays bounded at any n."""
    n = len(d)
    rows = max(1, _TRIANGLE_BLOCK // max(1, n * n))
    bad = []
    for first in range(0, n, rows):
        block = d[first:first + rows]
        # Cell (i, j, k): d[i][j] + d[j][k], summed in the same order as
        # the scalar expression.
        bound = block[:, :, None] + d
        bound += EPS
        broken = block[:, None, :] > bound
        if not broken.any():
            continue
        for i, j, k in np.argwhere(broken).tolist():
            bad.append(
                f"triangle inequality broken: distances[{first + i}][{k}] > "
                f"distances[{first + i}][{j}] + distances[{j}][{k}]"
            )
    return bad


def _entry_violations(distances):
    """Every broken entry rule of a square matrix, as messages: each entry
    finite and non-negative, the diagonal zero, the triangle inequality.
    These are checked only here, on outside input, since the triangle check
    alone costs O(n^3).

    The matrix becomes one float array, which serves both checks.  When
    every entry is finite and non-negative and every diagonal entry is
    within EPS of zero, no entry rule can fire, so the scalar loops are
    skipped; otherwise they run and name each broken entry in row order."""
    n = len(distances)
    bad = []
    # reshape: an empty matrix would otherwise have shape (0,).
    d = np.array(distances, dtype=float).reshape(n, n)
    finite = bool(np.isfinite(d).all())
    if not (finite and (d >= 0).all() and (np.abs(d.diagonal()) <= EPS).all()):
        for i in range(n):
            if abs(distances[i][i]) > EPS:
                bad.append(f"distances[{i}][{i}] must be zero")
            for j in range(n):
                if not math.isfinite(distances[i][j]):
                    bad.append(f"distances[{i}][{j}] must be finite")
                elif distances[i][j] < 0:
                    bad.append(f"distances[{i}][{j}] is negative")
    # Only on finite entries: a NaN would fail every comparison.
    if finite:
        bad.extend(_triangle_violations(d))
    return bad


def _collect_instance_violations(params, requests, distances, revenue_model=None):
    """Every broken semantic invariant of the raw document, as messages.

    The rules an instance shares with ``model`` come from there, the entry
    rules of a square matrix from ``_entry_violations``.  ``requests``
    holds a ``Request`` per record, which checked its own fields when it
    was built, or a namespace for a record the constructor refused."""
    bad = parameter_violations(SimpleNamespace(**params))
    shape = matrix_shape_violations(distances)
    bad += shape
    if not shape:
        bad += _entry_violations(distances)
    bad += [message for _, message in request_set_violations(requests, len(distances))]
    if revenue_model is not None:
        bad += revenue_model_violations(SimpleNamespace(**revenue_model))
    return bad


def load_instance(path):
    doc = _read_json(path)
    if not isinstance(doc, dict):
        raise ParseError("top-level value must be an object")
    version = _field(doc, "format_version", int, "document")
    if version != FORMAT_VERSION:
        raise ParseError(f"unsupported format_version {version}", field="format_version")

    raw_params = _field(doc, "parameters", dict, "document")
    params = {}
    for name in _PARAMETER_FIELDS:
        params[name] = _field(raw_params, name, int if name == "worker_count" else float, "parameters")

    raw_requests = _field(doc, "requests", list, "document")
    requests = []
    refused = False
    for i, raw in enumerate(raw_requests):
        values = [raw.get(name) for name in _REQUEST_FIELDS] if type(raw) is dict else ()
        if tuple(map(type, values)) != _REQUEST_TYPES:
            values = [_field(raw, name, kinds, f"requests[{i}]")
                      for name, kinds in zip(_REQUEST_FIELDS, _REQUEST_TYPES)]
        rec = dict(zip(_REQUEST_FIELDS, values))
        rec["kind"] = _REQUEST_KINDS.get(rec["kind"])
        if rec["kind"] is None:
            raise ParseError(f"requests[{i}].kind must be 'pickup' or 'delivery'", field="kind")
        try:
            requests.append(Request(**rec))
        except ValueError:
            # Kept as a record, so that every broken rule of it is listed.
            requests.append(SimpleNamespace(**rec))
            refused = True

    raw_distances = _field(doc, "distances", list, "document")
    distances = []
    for i, row in enumerate(raw_distances):
        if not isinstance(row, list):
            raise ParseError(f"distances[{i}] must be a list", field="distances")
        if set(map(type, row)) <= _FLOAT_TYPE:
            distances.append(row)
            continue
        out = []
        for j, value in enumerate(row):
            if isinstance(value, bool) or not isinstance(value, (int, float)):
                raise ParseError(f"distances[{i}][{j}] must be a number", field="distances")
            out.append(float(value))
        distances.append(out)

    revenue_model = None
    raw_model = doc.get("revenue_model")
    if raw_model is not None:
        revenue_model = {
            name: _field(raw_model, name, str if name == "kind" else float, "revenue_model")
            for name in _REVENUE_FIELDS
        }

    # On a clean file the constructors are the only run of the rules an
    # instance shares with ``model``.  When a request or a constructor is
    # refused, or an entry rule breaks, every rule runs to list each message.
    instance = None
    if not refused:
        try:
            instance = Instance(
                parameters=Parameters(**params),
                requests=requests,
                distances=distances,
                revenue_model=None if revenue_model is None else RevenueModel(**revenue_model),
                provenance=doc.get("provenance"),
            )
        except (ValueError, InvalidInstance, IndexOutOfRange):
            pass
    if instance is None or _entry_violations(distances):
        raise InvariantViolation(
            _collect_instance_violations(params, requests, distances, revenue_model))
    return instance


# ---------------------------------------------------------------------------
# Solutions.
# ---------------------------------------------------------------------------

def solution_to_dict(solution):
    return {
        "format_version": FORMAT_VERSION,
        "routes": [
            {
                "worker": route.worker,
                "start_time": route.start_time,
                "end_time": route.end_time,
                "visits": [
                    {
                        "request_id": v.request_id,
                        "arrival": v.arrival,
                        "waiting": v.waiting,
                        "ev_charge": v.ev_charge,
                    }
                    for v in route.visits
                ],
            }
            for route in solution.routes
        ],
        "served": sorted(solution.served),
        "rejected": sorted(solution.rejected),
        "total_revenue": solution.total_revenue,
        "worker_cost": solution.worker_cost,
        "profit": solution.profit,
        "optimal": solution.optimal,
    }


def save_solution(solution, path):
    _write(_text(solution_to_dict(solution)) + "\n", path)


def _finite(mapping, name, where):
    """A number field of a solution document; NaN and infinities are
    rejected, since a NaN would pass every comparison made with it."""
    value = _field(mapping, name, float, where)
    if not math.isfinite(value):
        raise ParseError(f"{where}.{name} must be finite, got {value}", field=name)
    return value


def load_solution(path):
    doc = _read_json(path)
    if not isinstance(doc, dict):
        raise ParseError("top-level value must be an object")
    version = _field(doc, "format_version", int, "document")
    if version != FORMAT_VERSION:
        raise ParseError(f"unsupported format_version {version}", field="format_version")
    routes = []
    for i, raw in enumerate(_field(doc, "routes", list, "document")):
        where = f"routes[{i}]"
        visits = []
        for j, rv in enumerate(_field(raw, "visits", list, where)):
            vwhere = f"{where}.visits[{j}]"
            request_id = _field(rv, "request_id", int, vwhere)
            visits.append(
                ScheduledVisit(
                    request_id=request_id,
                    arrival=_finite(rv, "arrival", vwhere),
                    waiting=_finite(rv, "waiting", vwhere),
                    ev_charge=None if rv.get("ev_charge") is None else _finite(rv, "ev_charge", vwhere),
                )
            )
        routes.append(
            RouteSchedule(
                worker=_field(raw, "worker", int, where),
                start_time=_finite(raw, "start_time", where),
                visits=tuple(visits),
                end_time=_finite(raw, "end_time", where),
            )
        )
    optimal = doc.get("optimal")
    if optimal is not None and not isinstance(optimal, bool):
        raise ParseError("optimal must be a boolean or null", field="optimal")
    ids = {}
    for name in ("served", "rejected"):
        listed = _field(doc, name, list, "document")
        if not all(isinstance(x, int) and not isinstance(x, bool) for x in listed):
            raise ParseError(f"{name} must hold request ids", field=name)
        ids[name] = frozenset(listed)
        if len(ids[name]) != len(listed):
            raise ParseError(f"{name} lists a request id more than once", field=name)
    return Solution(
        routes=tuple(routes),
        served=ids["served"],
        rejected=ids["rejected"],
        total_revenue=_finite(doc, "total_revenue", "document"),
        worker_cost=_finite(doc, "worker_cost", "document"),
        profit=_finite(doc, "profit", "document"),
        optimal=optimal,
    )
