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

The enumeration never replays a sequence to judge it.  The schedule
recurrence composes over a prefix, so each search node carries its
sequence's end states at the floor and the ceiling its first pickup fixes,
and a child is judged by walking its one new pair on from those states.  A
child whose latest window-compatible departure lies between the two is
walked from the depot only a few times: its window slack at the floor
estimates that departure, and walks around the estimate settle it.  Work
whose verdict is already known is skipped: a pickup that is late when
reached from a node's floor state is not judged with any delivery, and a
ceiling state whose windows already fail is handed down unwalked.  A served
set is recorded as its start and visit order once its label, plus the ride
home, fits the duty time; only the routes a packing picks are replayed and
validated.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field, replace

from .errors import InstanceTooLarge, RejectedRoute
from .feasibility import propagate, replay_route, route_end, route_start, validate_route
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
    there.  A ceiling state whose windows fail is handed down unchanged, as
    only that failure matters to the descendants: its other fields are never
    read.  ``start`` is the chosen depot departure and ``end`` the end state
    there, which decides every condition of the route but the ride home.
    """

    __slots__ = ("lo", "hi", "floor", "ceiling", "start", "end")

    def __init__(self, lo, hi, floor, ceiling):
        self.lo, self.hi = lo, hi
        self.floor, self.ceiling = floor, ceiling


def _depot_label(first, instance):
    """Label of the empty sequence for routes that open at ``first``."""
    lo = route_start(instance, first, first.tw_min)
    hi = route_start(instance, first, first.tw_max)
    return _Label(lo, hi, (True, True, lo, 0), (True, True, hi, 0))


def _window_slack(instance, start, requests):
    """How much later than ``start`` the depot departure may move before a
    window or charge-target condition of ``requests`` fails, in exact
    arithmetic, read off one walk from ``start`` (forward time slack).

    A delay reaches a stop less the waits before it.  A charge target holds
    its margin while the delay only adds parked recharge, that is until the
    EV is full; from there each minute of delay costs a minute's recharge.
    Only an estimate in floating point: ``_latest_start`` walks around it.
    """
    par = instance.parameters
    recharge = par.recharge_time
    stops, _, _ = propagate(instance, start, 0, requests)
    slack, waited = math.inf, 0.0
    pairs = iter(requests)
    for (pickup, delivery), (arrival, wait, charge), (d_arrival, d_wait, _) in zip(
            zip(pairs, pairs), stops[::2], stops[1::2]):
        slack = min(slack, waited + (pickup.tw_max + EPS - arrival))
        waited += wait
        slack = min(slack, waited + (delivery.tw_max + EPS - d_arrival))
        full = max(0.0, (1.0 - pickup.battery) * recharge - (arrival + wait - pickup.tw_min))
        left = charge - instance.distances[pickup.location][delivery.location] / par.full_range
        margin = left + (delivery.tw_max - d_arrival) / recharge - (delivery.battery - EPS)
        slack = min(slack, waited + full + margin * recharge)
        waited += d_wait
    return slack


def _latest_start(label, order, instance):
    """(start, end state) of ``order`` between ``label``'s floor, where its
    windows and charge targets hold, and its ceiling, where they fail.

    The start is what 60 halvings of [floor, ceiling] give when each
    midpoint is judged by walking ``order`` from the depot.  Those
    conditions hold on a down-closed set of departures, so the halvings are
    replayed against the latest departure ``a`` known to pass and the
    earliest ``b`` known to fail, walking only a midpoint strictly between
    the two.  First, walks that gallop in doubling ulps from the slack
    estimate bring ``a`` and ``b`` to either side of the largest passing
    float, so the replay seldom walks.  The estimate sets only the number
    of walks, never the start.  The end state is the walk at ``a`` when the
    halvings stop there, else one more walk.
    """
    a, end, b = label.lo, label.floor, label.hi
    x = a + _window_slack(instance, a, order)
    step = math.ulp(x)
    for _ in range(8):  # a bracket left open is closed by the halvings
        if not a < x < b:
            break  # past an end: the gallop turned, or the estimate lies outside
        state = _advance((True, True, x, 0), order, instance)
        if state[0]:
            a, end, x = x, state, x + step
        else:
            b, x = x, x - step
        step *= 2.0
    lo, hi = label.lo, label.hi
    for _ in range(60):
        mid = 0.5 * (lo + hi)
        if mid == lo or mid == hi:
            break  # no later halving can move either end
        if a < mid < b:
            state = _advance((True, True, mid, 0), order, instance)
            if state[0]:
                a, end = mid, state
            else:
                b = mid
        if mid <= a:
            lo = mid
        else:
            hi = mid
    if lo != a:
        end = _advance((True, True, lo, 0), order, instance)
    return lo, end


def _child_label(parent, seq, pickup, delivery, instance):
    """Label of ``seq + [pickup, delivery]`` from ``parent``, the label of
    ``seq``, or None when no extension of the child can be feasible.

    The child's start is the latest depot departure under which every
    window and charge-target condition holds.  Those conditions hold on a
    down-closed set of departures, so a child failing them at the floor is
    dead; one passing them at the ceiling starts there; otherwise
    ``_latest_start`` finds the start in between.  The floor and ceiling
    states are the parent's walked on by the one pair; a parent ceiling
    state whose windows fail is the child's unwalked (``_advance`` never
    sets a flag back to True).  A child whose own driving-range or duty
    conditions (duty measured without the ride home, which an extension
    replaces) already fail at its start condemns its whole subtree, since
    appending pairs only adds conditions and time.
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
        start, end = _latest_start(child, (*seq, pickup, delivery), instance)
    _, range_ok, dep, _ = end
    if range_ok and dep - start <= instance.parameters.duty_time + EPS:
        child.start, child.end = start, end
        return child
    return None


def _feasible_route_masks(instance, limits, deadline):
    """Map from served-id frozenset to (start, order) of one representative
    feasible route.

    Depth-first over pair sequences in id order, each node carrying its
    sequence's label so that a child is judged by walking one pair on from
    its parent's end states.  A pickup that is late when reached from the
    node's floor state is skipped with all its deliveries: that is the first
    test ``_child_label`` makes, so each of those children would be None.
    A served set's representative is its first sequence whose label, plus
    the ride home, fits the duty time (``route_end``).  The label has
    already decided every other condition, at the start the route is
    replayed from, with ``propagate``'s own arithmetic, so this is the
    validator's verdict on that replay.  Returns (masks, complete) where
    complete is False when the time budget cut the enumeration short.
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
            if key not in masks and route_end(instance, label.start, label.end[2], seq[-1])[1]:
                masks[key] = (label.start, tuple(seq))
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
    packing found.  The packed routes, and only those, are replayed from
    their starts and validated; a route the validator rejects raises
    ``RejectedRoute``.

    Packing is a depth-first search over the paying routes in decreasing
    value, each held as a bit mask over ``instance.requests``.  A node
    stops its scan at the first candidate whose headroom cannot reach the
    incumbent: the smaller of the free slots times the candidate's value
    and the worth of the free requests that the candidate or a later one
    serves.  That worth is a running value, summed once per node and
    lowered, as the scan passes candidate j, by the free requests whose
    last candidate is j.
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
    worth = [r.revenue if profit else 1.0 for r in instance.requests]
    index = {r.id: k for k, r in enumerate(instance.requests)}
    cost = instance.parameters.worker_cost if profit else 0.0

    candidates = []
    for ids, plan in mask_map.items():
        value = sum(worth[index[i]] for i in ids) - cost
        if value <= _TIE_TOL:
            continue  # can never raise the objective; dropping keeps routes minimal
        candidates.append((value, tuple(sorted(ids)), sum(1 << index[i] for i in ids), plan))
    candidates.sort(key=lambda c: (-c[0], c[1]))
    values = [c[0] for c in candidates]
    masks = [c[2] for c in candidates]
    # leaving[j]: (bit, worth) of each request whose last candidate is j;
    # suffix[j]: of each request that candidate j or a later one serves.
    leaving = [()] * len(candidates)
    suffix = [()] * (len(candidates) + 1)
    later = 0
    for j in range(len(candidates) - 1, -1, -1):
        last = masks[j] & ~later
        leaving[j] = tuple((1 << k, w) for k, w in enumerate(worth) if last >> k & 1)
        suffix[j] = suffix[j + 1] + leaving[j]
        later |= masks[j]

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
        room = slots - len(picks)
        if not room:
            return
        # The worth of the free requests that candidate j or a later one
        # serves; each leaves it as j passes its last candidate.
        pool = sum(w for b, w in suffix[start] if not used & b)
        floor = best["value"] - _TIE_TOL
        for j in range(start, len(candidates)):
            # value + min(headroom of the free slots, pool) < floor
            if value + room * values[j] < floor or value + pool < floor:
                break
            for b, w in leaving[j]:
                if not used & b:
                    pool -= w
            if masks[j] & used:
                continue
            picks.append(j)
            pack(j + 1, used | masks[j], value + values[j], picks)
            picks.pop()
            if not complete:
                return
            floor = best["value"] - _TIE_TOL

    pack(0, 0, 0.0, [])

    if not best["picks"]:
        solution = empty_solution(instance, optimal=complete)
    else:
        routes = []
        for j in best["picks"]:
            route = replay_route(instance, *candidates[j][3])
            if not validate_route(route, instance).ok:
                raise RejectedRoute(f"the validator rejects the packed route serving {candidates[j][1]}")
            routes.append(route)
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
