"""Instance and solution files.

Versioned UTF-8 JSON documents.  Floats go through the standard JSON
serializer, whose shortest-round-trip representation makes save/load
bit-exact.  Loading an instance validates the whole document and reports
every violated invariant at once, not just the first.
"""

from __future__ import annotations

import json
import math
from dataclasses import fields
from pathlib import Path
from types import SimpleNamespace

import numpy as np

from .errors import InvariantViolation, ParseError
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


def _write_json(document, path):
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    with path.open("w", encoding="utf-8") as fh:
        json.dump(document, fh, indent=2)
        fh.write("\n")


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


def save_instance(instance, path):
    _write_json(instance_to_dict(instance), path)


def _triangle_violations(distances):
    """Messages for every (i, j, k) with d[i][k] > d[i][j] + d[j][k] + EPS,
    in i, j, k order; one n-by-n slab per ``i`` keeps memory O(n^2)."""
    d = np.array(distances, dtype=float)
    bad = []
    for i in range(len(d)):
        # Row j, column k of the slab: d[i][j] + d[j][k], summed in the
        # same order as the scalar expression.
        broken = d[i][None, :] > (d[i][:, None] + d) + EPS
        for j, k in np.argwhere(broken).tolist():
            bad.append(
                f"triangle inequality broken: distances[{i}][{k}] > "
                f"distances[{i}][{j}] + distances[{j}][{k}]"
            )
    return bad


def _collect_instance_violations(params, requests, distances, revenue_model=None):
    """Every broken semantic invariant of the raw document, as messages.

    The rules an instance shares with ``model`` come from there; the
    matrix entries are checked only here, on outside input, since the
    triangle check alone costs O(n^3)."""
    bad = parameter_violations(SimpleNamespace(**params))
    n = len(distances)
    shape = matrix_shape_violations(distances)
    bad += shape
    if not shape:
        finite = True
        for i in range(n):
            if abs(distances[i][i]) > EPS:
                bad.append(f"distances[{i}][{i}] must be zero")
            for j in range(n):
                if not math.isfinite(distances[i][j]):
                    bad.append(f"distances[{i}][{j}] must be finite")
                    finite = False
                elif distances[i][j] < 0:
                    bad.append(f"distances[{i}][{j}] is negative")
        # Only on finite entries: a NaN would fail every comparison.
        if finite:
            bad.extend(_triangle_violations(distances))
    records = [SimpleNamespace(**r) for r in requests]
    bad += [message for _, message in request_set_violations(records, n)]
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
    for i, raw in enumerate(raw_requests):
        where = f"requests[{i}]"
        rec = {
            "id": _field(raw, "id", int, where),
            "kind": _field(raw, "kind", str, where),
            "location": _field(raw, "location", int, where),
            "tw_min": _field(raw, "tw_min", float, where),
            "tw_max": _field(raw, "tw_max", float, where),
            "battery": _field(raw, "battery", float, where),
            "revenue": _field(raw, "revenue", float, where),
        }
        if rec["kind"] not in ("pickup", "delivery"):
            raise ParseError(f"{where}.kind must be 'pickup' or 'delivery'", field="kind")
        requests.append(rec)

    raw_distances = _field(doc, "distances", list, "document")
    distances = []
    for i, row in enumerate(raw_distances):
        if not isinstance(row, list):
            raise ParseError(f"distances[{i}] must be a list", field="distances")
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

    violations = _collect_instance_violations(params, requests, distances, revenue_model)
    if violations:
        raise InvariantViolation(violations)

    return Instance(
        parameters=Parameters(**params),
        requests=tuple(Request(**{**r, "kind": RequestKind(r["kind"])}) for r in requests),
        distances=tuple(tuple(row) for row in distances),
        revenue_model=None if revenue_model is None else RevenueModel(**revenue_model),
        provenance=doc.get("provenance"),
    )


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
    _write_json(solution_to_dict(solution), path)


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
    served = _field(doc, "served", list, "document")
    rejected = _field(doc, "rejected", list, "document")
    if not all(isinstance(x, int) for x in served + rejected):
        raise ParseError("served and rejected must hold request ids", field="served")
    return Solution(
        routes=tuple(routes),
        served=frozenset(served),
        rejected=frozenset(rejected),
        total_revenue=_finite(doc, "total_revenue", "document"),
        worker_cost=_finite(doc, "worker_cost", "document"),
        profit=_finite(doc, "profit", "document"),
        optimal=optimal,
    )
