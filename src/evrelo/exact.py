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

The enumeration never replays a sequence from the depot to judge it.  The
schedule recurrence composes over a prefix, so each search node carries its
sequence's end states at the departures it is judged at (the floor and the
ceiling its first pickup fixes, plus any bisection midpoints asked about),
and a child is judged by walking its one new pair on from those states.
Work whose verdict is already known is skipped: a pickup that is late when
reached from a node's floor state is not judged with any delivery, and a
state whose windows already fail is handed down to the child unwalked.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field, replace

from .errors import InstanceTooLarge
from .feasibility import propagate, replay_route, route_start, validate_route
from .insertion import run_ch
from .model import (
    EPS,
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
    time budget runs out the search stops cleanly and the better of the
    best solution found so far and ``run_ch``'s is returned with its
    optimality flag cleared.
    ``time_budget`` is in seconds, None for no budget.
    """

    max_requests: int = 10
    time_budget: float | None = None
    nodes: int = field(default=0, compare=False)

    def __post_init__(self):
        # A NaN cap would be no cap: ``n > nan`` never holds.
        cap = self.max_requests
        if isinstance(cap, bool) or not isinstance(cap, int) or cap < 0:
            raise ValueError(f"max_requests must be an integer >= 0, got {cap!r}")
        # Written so that NaN fails: a NaN deadline would never be reached.
        if self.time_budget is not None and not self.time_budget >= 0:
            raise ValueError(f"time_budget must be None or a number >= 0, got {self.time_budget!r}")


def _advance(state, requests, instance):
    """End state after walking the pairs ``requests`` on from ``state``.

    A state is (windows_ok, range_ok, departure, location): whether every
    window and charge-target condition met so far holds, whether every
    driving-range condition met so far holds, and when and where the worker
    leaves the last stop.  ``propagate`` composes: walking ``seq + pair``
    from the depot does, bit for bit, ``seq``'s arithmetic and then the
    pair's from ``seq``'s end state.
    """
    windows_ok, range_ok, dep, loc = state
    _, dep, failures = propagate(instance, dep, loc, requests)
    for code, _ in failures:
        if code == "battery_range":
            range_ok = False
        else:
            windows_ok = False
    return windows_ok, range_ok, dep, requests[-1].location


class _Label:
    """End states of one pair sequence at the depot departures it is judged at.

    ``lo`` and ``hi`` are the floor and the ceiling, the departures that put
    the first pickup at its window opening and closing; every extension of
    the sequence shares them.  ``floor`` and ``ceiling`` are the end states
    there, and ``states`` holds the end state at each bisection midpoint
    asked about.  A ceiling or midpoint state whose windows fail is handed
    down unchanged, as only that failure matters to the descendants: its
    other fields are never read.  ``start`` is the chosen depot departure.
    """

    __slots__ = ("lo", "hi", "floor", "ceiling", "states", "start")

    def __init__(self, lo, hi, floor, ceiling):
        self.lo, self.hi = lo, hi
        self.floor, self.ceiling = floor, ceiling
        self.states = {}


def _depot_label(first, instance):
    """Label of the empty sequence for routes that open at ``first``."""
    lo = route_start(instance, first, first.tw_min)
    hi = route_start(instance, first, first.tw_max)
    return _Label(lo, hi, (True, True, lo, 0), (True, True, hi, 0))


def _child_label(parent, seq, pickup, delivery, instance):
    """Label of ``seq + [pickup, delivery]`` from ``parent``, the label of
    ``seq``, or None when no extension of the child can be feasible.

    The child's start is the latest depot departure under which every
    window and charge-target condition holds.  Those conditions hold on a
    down-closed set of departures, so a child failing them at the floor is
    dead; one passing them at the ceiling starts there; otherwise the start
    is bisected between the two.  Each end state is the parent's state at
    the same departure walked on by the one pair, the parent's midpoint
    states being memoised so that siblings share them; a parent state whose
    windows fail is the child's state unwalked (``_advance`` never sets a
    flag back to True).  A child whose own driving-range or duty conditions
    (duty measured without the ride home, which an extension replaces)
    already fail at its start condemns its whole subtree, since appending
    pairs only adds conditions and time.
    """
    pair = (pickup, delivery)
    floor = _advance(parent.floor, pair, instance)
    if not floor[0]:
        return None
    ceiling = parent.ceiling
    if ceiling[0]:
        ceiling = _advance(ceiling, pair, instance)
    child = _Label(parent.lo, parent.hi, floor, ceiling)
    if ceiling[0]:
        start, end = child.hi, ceiling
    else:
        lo, hi, end = child.lo, child.hi, floor
        for _ in range(60):
            mid = 0.5 * (lo + hi)
            if mid == lo or mid == hi:
                break  # no later halving can move either end
            if seq:
                state = parent.states.get(mid)
                if state is None:
                    state = parent.states[mid] = _advance((True, True, mid, 0), seq, instance)
            else:
                state = (True, True, mid, 0)  # leaving the depot
            if state[0]:
                state = _advance(state, pair, instance)
            child.states[mid] = state  # a failed state is handed down unchanged
            if state[0]:
                lo, end = mid, state
            else:
                hi = mid
        start = lo
    _, range_ok, dep, _ = end
    if range_ok and dep - start <= instance.parameters.duty_time + EPS:
        child.start = start
        return child
    return None


def _feasible_route_masks(instance, limits, deadline):
    """Map from served-id frozenset to one representative feasible route.

    Depth-first over pair sequences in id order, each node carrying its
    sequence's label so that a child is judged by walking one pair on from
    its parent's end states.  A pickup that is late when reached from the
    node's floor state is skipped with all its deliveries: that is the first
    test ``_child_label`` makes, so each of those children would be None.
    A served set's representative is its first sequence whose route,
    replayed from the label's start, passes the validator (which adds the
    ride home and judges the duty time); later sequences are not
    materialized.  Returns (masks, complete) where complete is False when
    the time budget cut the enumeration short.
    """
    pickups = sorted(instance.pickups, key=lambda r: r.id)
    deliveries = sorted(instance.deliveries, key=lambda r: r.id)
    dist = instance.distances
    bike = instance.parameters.bike_speed
    masks = {}
    complete = True

    def extend(seq, used, label=None):
        nonlocal complete
        if deadline is not None and time.monotonic() > deadline:
            complete = False
            return
        limits.nodes += 1
        if seq:
            key = frozenset(used)
            if key not in masks:
                route = replay_route(instance, label.start, seq)
                if validate_route(route, instance).ok:
                    masks[key] = route
        for p in pickups:
            if p.id in used:
                continue
            parent = label if seq else _depot_label(p, instance)
            _, _, dep, loc = parent.floor
            if not dep + dist[loc][p.location] * 60.0 / bike <= p.tw_max + EPS:
                continue  # late at the floor: _child_label's first test fails
            for d in deliveries:
                if d.id in used:
                    continue
                child = _child_label(parent, seq, p, d, instance)
                if child is not None:
                    seq += (p, d)
                    used.update((p.id, d.id))
                    extend(seq, used, child)
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
    non-optimal.  Under a budget, and only then, ``run_ch``'s solution is
    the incumbent: a search cut short returns it when it beats the best
    packing found.
    """
    check_objective(objective)
    limits = limits if limits is not None else OracleLimits()
    n = len(instance.requests)
    if n > limits.max_requests:
        raise InstanceTooLarge(
            f"{n} requests exceed the exact-search cap of {limits.max_requests}"
        )
    deadline = incumbent = None
    if limits.time_budget is not None:
        deadline = time.monotonic() + limits.time_budget
        incumbent = run_ch(instance, objective=objective)
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
        solution = empty_solution(instance, optimal=complete)
    else:
        routes = [candidates[j][3] for j in best["picks"]]
        solution = assemble_solution(routes, instance, optimal=complete)
    if not complete and (objective_value(incumbent, objective)
                         > objective_value(solution, objective) + _TIE_TOL):
        return replace(incumbent, optimal=False)
    return solution


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
