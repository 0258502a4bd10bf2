"""Instance and solution files.

Versioned UTF-8 JSON documents.  Floats go through the standard JSON
serializer, whose shortest-round-trip representation makes save/load
bit-exact.  Loading an instance validates the whole document and reports
every violated invariant at once, not just the first.
"""

from __future__ import annotations

import json
import math
from pathlib import Path

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
)

FORMAT_VERSION = 1

_PARAMETER_FIELDS = (
    "duty_time",
    "ev_speed",
    "bike_speed",
    "park_time",
    "load_time",
    "full_range",
    "recharge_time",
    "worker_count",
    "worker_cost",
)
_REQUEST_FIELDS = ("id", "kind", "location", "tw_min", "tw_max", "battery", "revenue")
_REVENUE_FIELDS = ("kind", "amount", "rate_per_min", "rent_min", "rent_max", "frc")


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
    doc = {
        "format_version": FORMAT_VERSION,
        "parameters": {f: getattr(instance.parameters, f) for f in _PARAMETER_FIELDS},
        "requests": [
            {
                "id": r.id,
                "kind": r.kind.value,
                "location": r.location,
                "tw_min": r.tw_min,
                "tw_max": r.tw_max,
                "battery": r.battery,
                "revenue": r.revenue,
            }
            for r in instance.requests
        ],
        "distances": [list(row) for row in instance.distances],
        "revenue_model": None,
        "provenance": instance.provenance,
    }
    if instance.revenue_model is not None:
        doc["revenue_model"] = {
            f: getattr(instance.revenue_model, f) for f in _REVENUE_FIELDS
        }
    return doc


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


def _collect_instance_violations(params, requests, distances):
    """Every broken semantic invariant of the raw document, as messages."""
    bad = []
    for name in _PARAMETER_FIELDS:
        if not math.isfinite(params[name]):
            bad.append(f"parameters.{name} must be finite, got {params[name]}")
    for name in _PARAMETER_FIELDS[:3] + _PARAMETER_FIELDS[5:7]:
        if params[name] <= 0:
            bad.append(f"parameters.{name} must be strictly positive, got {params[name]}")
    for name in ("park_time", "load_time", "worker_cost"):
        if params[name] < 0:
            bad.append(f"parameters.{name} must be non-negative, got {params[name]}")
    if params["worker_count"] < 1:
        bad.append(f"parameters.worker_count must be at least 1, got {params['worker_count']}")

    n = len(distances)
    for i, row in enumerate(distances):
        if len(row) != n:
            bad.append(f"distances row {i} has {len(row)} entries, expected {n}")
    if all(len(row) == n for row in distances):
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

    seen = set()
    for r in requests:
        label = f"request {r['id']}"
        if r["id"] in seen:
            bad.append(f"{label}: duplicate id")
        seen.add(r["id"])
        for name in ("tw_min", "tw_max", "battery", "revenue"):
            if not math.isfinite(r[name]):
                bad.append(f"{label}: {name} must be finite, got {r[name]}")
        if r["tw_min"] > r["tw_max"]:
            bad.append(f"{label}: tw_min {r['tw_min']} exceeds tw_max {r['tw_max']}")
        if not 0.0 <= r["battery"] <= 1.0:
            bad.append(f"{label}: battery {r['battery']} outside [0, 1]")
        if r["revenue"] < 0:
            bad.append(f"{label}: negative revenue")
        if not 1 <= r["location"] < max(n, 1):
            bad.append(f"{label}: location {r['location']} outside the distance matrix")
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
        kind = _field(raw_model, "kind", str, "revenue_model")
        if kind not in ("flat", "vrc_frc"):
            raise ParseError("revenue_model.kind must be 'flat' or 'vrc_frc'", field="kind")
        revenue_model = RevenueModel(
            kind=kind,
            amount=_field(raw_model, "amount", float, "revenue_model"),
            rate_per_min=_field(raw_model, "rate_per_min", float, "revenue_model"),
            rent_min=_field(raw_model, "rent_min", float, "revenue_model"),
            rent_max=_field(raw_model, "rent_max", float, "revenue_model"),
            frc=_field(raw_model, "frc", float, "revenue_model"),
        )

    violations = _collect_instance_violations(params, requests, distances)
    if violations:
        raise InvariantViolation(violations)

    return Instance(
        parameters=Parameters(**params),
        requests=tuple(
            Request(
                id=r["id"],
                kind=RequestKind(r["kind"]),
                location=r["location"],
                tw_min=r["tw_min"],
                tw_max=r["tw_max"],
                battery=r["battery"],
                revenue=r["revenue"],
            )
            for r in requests
        ),
        distances=tuple(tuple(row) for row in distances),
        revenue_model=revenue_model,
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
            charge = rv.get("ev_charge") if isinstance(rv, dict) else None
            visits.append(
                ScheduledVisit(
                    request_id=_field(rv, "request_id", int, vwhere),
                    arrival=_field(rv, "arrival", float, vwhere),
                    waiting=_field(rv, "waiting", float, vwhere),
                    ev_charge=None if charge is None else float(charge),
                )
            )
        routes.append(
            RouteSchedule(
                worker=_field(raw, "worker", int, where),
                start_time=_field(raw, "start_time", float, where),
                visits=tuple(visits),
                end_time=_field(raw, "end_time", float, where),
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
        total_revenue=_field(doc, "total_revenue", float, "document"),
        worker_cost=_field(doc, "worker_cost", float, "document"),
        profit=_field(doc, "profit", float, "document"),
        optimal=optimal,
    )
