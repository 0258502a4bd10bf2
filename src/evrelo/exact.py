"""Exhaustive optimum for small instances.

Enumerates every alternating pickup/delivery sequence a single worker could
serve, keeps the feasible ones, then packs disjoint routes onto the workers
for the best objective value.  Intended as ground truth for the heuristics;
instance size is capped accordingly.

Scheduling a fixed sequence exploits one structural fact, documented in
docs/scheduling_notes.md: as the depot departure varies, the feasible
departures form an interval.  Time-window and charge-target conditions only
get harder as the departure moves later, while driving-range and duty-time
conditions only get easier, so the sequence is feasible iff the latest
window-compatible departure also satisfies the range and duty conditions.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

from .errors import InstanceTooLarge
from .feasibility import propagate, replay_route, validate_route
from .model import (
    EPS,
    RequestKind,
    assemble_solution,
    check_objective,
    empty_solution,
    objective_value,
)

_TIE_TOL = 1e-9


@dataclass
class OracleLimits:
    """Safety rails of the exhaustive search.

    ``nodes`` counts search tree nodes visited (sequence prefixes plus
    packing steps) and is updated in place by ``solve_exact``.  When the
    time budget runs out the search stops cleanly and the best solution
    found so far is returned with its optimality flag cleared.
    """

    max_requests: int = 10
    time_budget: float | None = None
    nodes: int = field(default=0, compare=False)


def _scan_sequence(seq, start, instance):
    """Replay a flat pickup, delivery, ... sequence from a depot departure.

    Returns (windows_ok, range_ok, last_departure): whether every window and
    charge-target condition holds, whether every driving-range condition
    holds, and when the worker leaves the final delivery.
    """
    _, dep, failures = propagate(instance, start, 0, seq)
    windows_ok = range_ok = True
    for code, _ in failures:
        if code == "battery_range":
            range_ok = False
        else:
            windows_ok = False
    return windows_ok, range_ok, dep


def _latest_window_start(seq, instance):
    """Latest depot departure under which every window and charge-target
    condition of the sequence holds, or None when no departure works.

    The conditions hold on a down-closed set of departures, so the latest
    candidate is checked first (the one putting the first pickup at its
    window closing); failing that, the answer is bisected against the
    departure low enough to pin the whole schedule to its window floors.
    """
    first = seq[0]
    ride = instance.bike_minutes(0, first.location)
    hi = first.tw_max - ride
    if _scan_sequence(seq, hi, instance)[0]:
        return hi
    lo = first.tw_min - ride
    if not _scan_sequence(seq, lo, instance)[0]:
        return None
    for _ in range(60):
        mid = 0.5 * (lo + hi)
        if _scan_sequence(seq, mid, instance)[0]:
            lo = mid
        else:
            hi = mid
    return lo


def _viable_schedule(seq, instance):
    """(start, last departure) at the latest window-compatible departure of
    the sequence, or None when no extension of it can be feasible.

    Appending pairs only adds conditions and driving time, so a prefix whose
    own conditions already fail at that departure (duty measured without
    the ride home, which an extension replaces) condemns the whole subtree.
    """
    start = _latest_window_start(seq, instance)
    if start is None:
        return None
    _, range_ok, dep = _scan_sequence(seq, start, instance)
    if range_ok and dep - start <= instance.parameters.duty_time + EPS:
        return start, dep
    return None


def _sequence_route(seq, start, dep, instance):
    """Feasible stored route for a sequence, or None.

    ``start`` and ``dep`` are ``_viable_schedule``'s for the sequence; the
    route must also fit the ride home into the duty time, and the
    materialized route must replay clean through the validator.
    """
    if not dep + instance.bike_minutes(seq[-1].location, 0) - start <= instance.parameters.duty_time + EPS:
        return None
    route = replay_route(instance, start, seq)
    return route if validate_route(route, instance).ok else None


def _feasible_route_masks(instance, limits, deadline):
    """Map from served-id frozenset to one representative feasible route.

    Depth-first over pair sequences in id order; returns (masks, complete)
    where complete is False when the time budget cut the enumeration short.
    """
    pickups = sorted(
        (r for r in instance.requests if r.kind is RequestKind.PICKUP), key=lambda r: r.id
    )
    deliveries = sorted(
        (r for r in instance.requests if r.kind is RequestKind.DELIVERY), key=lambda r: r.id
    )
    masks = {}
    complete = True

    def extend(seq, used, start=None, dep=None):
        nonlocal complete
        if deadline is not None and time.monotonic() > deadline:
            complete = False
            return
        limits.nodes += 1
        if seq:
            route = _sequence_route(seq, start, dep, instance)
            if route is not None:
                masks.setdefault(frozenset(used), route)
        for p in pickups:
            if p.id in used:
                continue
            for d in deliveries:
                if d.id in used:
                    continue
                seq += (p, d)
                used.update((p.id, d.id))
                viable = _viable_schedule(seq, instance)
                if viable is not None:
                    extend(seq, used, *viable)
                del seq[-2:]
                used.difference_update((p.id, d.id))
                if not complete:
                    return

    extend([], set())
    return masks, complete


def solve_exact(instance, objective="profit", limits=None):
    """Best solution over all route packings, for either objective.

    Ties are broken toward fewer routes, then the lexicographically smallest
    sorted tuple of served ids; the result is deterministic.  The returned
    solution carries optimal=True unless the time budget interrupted the
    search, in which case the best solution found so far is flagged
    non-optimal.
    """
    check_objective(objective)
    limits = limits if limits is not None else OracleLimits()
    n = len(instance.requests)
    if n > limits.max_requests:
        raise InstanceTooLarge(
            f"{n} requests exceed the exact-search cap of {limits.max_requests}"
        )
    deadline = None
    if limits.time_budget is not None:
        deadline = time.monotonic() + limits.time_budget
    mask_map, complete = _feasible_route_masks(instance, limits, deadline)

    # What each request adds to the objective, and what each route costs.
    profit = objective == "profit"
    worth = {r.id: r.revenue if profit else 1.0 for r in instance.requests}
    cost = instance.parameters.worker_cost if profit else 0.0

    def pool_value(ids):
        return sum(worth[i] for i in ids)

    candidates = []
    for ids, route in mask_map.items():
        value = pool_value(ids) - cost
        if value <= _TIE_TOL:
            continue  # can never raise the objective; dropping keeps routes minimal
        candidates.append((value, tuple(sorted(ids)), frozenset(ids), route))
    candidates.sort(key=lambda c: (-c[0], c[1]))
    suffix_ids = [frozenset()] * (len(candidates) + 1)
    for i in range(len(candidates) - 1, -1, -1):
        suffix_ids[i] = suffix_ids[i + 1] | candidates[i][2]

    slots = instance.parameters.worker_count
    best = {"value": 0.0, "routes": 0, "key": (), "picks": ()}

    def consider(value, picks):
        n_routes = len(picks)
        key = tuple(sorted(i for c in picks for i in candidates[c][1]))
        incumbent = best["value"]
        if value > incumbent + _TIE_TOL:
            pass
        elif value < incumbent - _TIE_TOL:
            return
        elif (n_routes, key) >= (best["routes"], best["key"]):
            return
        best.update(value=value, routes=n_routes, key=key, picks=tuple(picks))

    def pack(start, used, value, picks):
        nonlocal complete
        if deadline is not None and time.monotonic() > deadline:
            complete = False
            return
        limits.nodes += 1
        consider(value, picks)
        if len(picks) == slots:
            return
        for j in range(start, len(candidates)):
            cand_value, _, ids, _ = candidates[j]
            headroom = min(
                (slots - len(picks)) * cand_value,
                pool_value(suffix_ids[j] - used),
            )
            if value + headroom < best["value"] - _TIE_TOL:
                break
            if ids & used:
                continue
            picks.append(j)
            pack(j + 1, used | ids, value + cand_value, picks)
            picks.pop()
            if not complete:
                return

    pack(0, frozenset(), 0.0, [])

    if not best["picks"]:
        return empty_solution(instance, optimal=complete)
    routes = [candidates[j][3] for j in best["picks"]]
    return assemble_solution(routes, instance, optimal=complete)


def optimality_gap(heuristic, oracle, objective="profit"):
    """Percentage by which the heuristic falls short of the oracle.

    Computed as (oracle - heuristic) / oracle * 100 on the objective value
    (profit in currency, or requests served).  A zero oracle value yields
    0.0 when the heuristic is also zero and None (undefined) otherwise.
    """
    check_objective(objective)
    ref, val = objective_value(oracle, objective), objective_value(heuristic, objective)
    if abs(ref) < 1e-12:
        return 0.0 if abs(val) < 1e-12 else None
    return (ref - val) / ref * 100.0
