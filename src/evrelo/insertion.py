"""Pair-based route construction.

This module houses the structured heuristics: urgency scoring of requests,
screening of pickup/delivery pairs, the zero-waiting timing of the first pair
of a route, the exact time-extension arithmetic for inserting a pair into an
existing route, and the two drivers built on top - a deterministic
urgency-first construction and its randomized best-of-many variant.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from .errors import GapOutOfRange, UnknownRequest
from .feasibility import propagate, replay_route, schedule_route
from .model import (
    EPS,
    RequestKind,
    assemble_solution,
    check_objective,
    objective_value,
    paying_routes,
)

NEG_INF = float("-inf")


def pair_necessary_feasible(pickup, delivery, instance):
    """Necessary conditions for a pickup/delivery pair to ever be served
    back-to-back by one worker.

    They screen, in order: the delivery window can still be met when leaving
    the pickup as early as possible; the battery can reach the level the
    delivery demands even with the full recharge slack of the delivery
    window; and a route serving just this pair fits into the duty time.
    Passing all three does not guarantee a feasible route (the checks ignore
    the actual schedule), but failing any one proves the pair useless.
    """
    par = instance.parameters
    dist = instance.distances
    leg = dist[pickup.location][delivery.location]
    t = leg * 60.0 / par.ev_speed
    if pickup.tw_min + t + par.load_time + par.park_time > delivery.tw_max + EPS:
        return False
    spent = leg / par.full_range
    slack = (delivery.tw_max - delivery.tw_min) / par.recharge_time
    if pickup.battery - spent + slack < delivery.battery - EPS:
        return False
    tour = (
        dist[0][pickup.location] * 60.0 / par.bike_speed
        + dist[delivery.location][0] * 60.0 / par.bike_speed
        + max(t + par.load_time, delivery.tw_min - pickup.tw_max)
        + par.park_time
    )
    return tour <= par.duty_time + EPS


def compatible_partners(instance):
    """For every request id, the opposite-kind requests it can pair with,
    sorted by parking distance (ties by id).  Computed once per instance;
    the screening conditions do not depend on solver state, and each pair
    is screened once for both of its requests."""
    pickups = [r for r in instance.requests if r.kind is RequestKind.PICKUP]
    deliveries = [r for r in instance.requests if r.kind is RequestKind.DELIVERY]
    good = {r.id: [] for r in pickups + deliveries}
    for p in pickups:
        for d in deliveries:
            if pair_necessary_feasible(p, d, instance):
                good[p.id].append(d)
                good[d.id].append(p)
    dist = instance.distances
    for p in pickups:
        good[p.id].sort(key=lambda d: (dist[p.location][d.location], d.id))
    for d in deliveries:
        good[d.id].sort(key=lambda p: (dist[p.location][d.location], p.id))
    return {rid: tuple(reqs) for rid, reqs in good.items()}


def critical_factor(request, partners, instance):
    """Urgency score of a request against its still-unserved partners.

    ``partners`` are the opposite-kind requests it can pair with, as
    screened by ``compatible_partners``.  Lower is more urgent.  For a
    pickup: the latest useful departure over those deliveries minus the
    window opening.  For a delivery: the window closing minus the earliest
    possible hand-over from those pickups.  Negative means the request can
    no longer be served; minus infinity means nothing can be paired with it
    at all.
    """
    if not partners:
        return NEG_INF
    if request.kind is RequestKind.PICKUP:
        latest = max(d.tw_max - instance.ev_minutes(request.location, d.location) for d in partners)
        return latest - request.tw_min
    earliest = min(p.tw_min + instance.ev_minutes(p.location, request.location) for p in partners)
    return request.tw_max - earliest


def preprocess(instance, partners):
    """Purge hopeless requests and balance the pickup and delivery sets.

    Repeats two rules until nothing changes: drop every request whose urgency
    score is negative (or that has no partner left), then, if one side is
    larger, drop its surplus lowest-scored requests.  Each removal can lower
    the scores of the survivors, hence the loop; on exit the two sides have
    equal size and every retained request scores non-negative against the
    retained opposite side.  ``partners`` is ``compatible_partners(instance)``.

    Returns (retained, rejected) as tuples of requests in id order.
    """
    retained = {r.id: r for r in instance.requests}
    rejected = []
    while True:
        current = list(retained.values())
        scores = {
            r.id: critical_factor(r, [p for p in partners[r.id] if p.id in retained], instance)
            for r in current
        }
        doomed = [r for r in current if scores[r.id] < 0]
        if doomed:
            for r in doomed:
                del retained[r.id]
                rejected.append(r)
            continue
        pickups = sorted((r for r in current if r.kind is RequestKind.PICKUP), key=lambda r: (scores[r.id], r.id))
        deliveries = sorted((r for r in current if r.kind is RequestKind.DELIVERY), key=lambda r: (scores[r.id], r.id))
        surplus = len(pickups) - len(deliveries)
        if surplus == 0:
            break
        victims = pickups[:surplus] if surplus > 0 else deliveries[:-surplus]
        for r in victims:
            del retained[r.id]
            rejected.append(r)
    retained_t = tuple(sorted(retained.values(), key=lambda r: r.id))
    rejected_t = tuple(sorted(rejected, key=lambda r: r.id))
    return retained_t, rejected_t


# ---------------------------------------------------------------------------
# First pair of a route.
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class FirstPairTiming:
    """Timing of the opening pair of a route, chosen so the worker never
    waits at the pickup and waits as little as possible at the delivery.

    ``completion_time`` is the moment the worker is free to leave the
    delivery; it synchronises the pickup departure with the opening of the
    delivery window.  ``delivery_arrival`` follows the pair-timing
    convention: it counts both handling times after the pickup arrival, i.e.
    it equals the moment the EV is parked (the stored schedule books the
    parking step inside the service window, ``park_time`` earlier).
    """

    completion_time: float
    pickup_arrival: float
    pickup_waiting: float
    delivery_arrival: float
    delivery_waiting: float
    start_time: float


def init_first_pair(pickup, delivery, instance):
    """Zero-waiting timing for a pair that opens a fresh route.

    The depot departure is back-dated so the worker reaches the pickup at
    the latest moment that still meets the delivery window opening, capped
    by the pickup window closing (in which case the delivery incurs the
    residual wait).
    """
    par = instance.parameters
    dist = instance.distances
    t = dist[pickup.location][delivery.location] * 60.0 / par.ev_speed
    handling = par.park_time + par.load_time
    completion = max(delivery.tw_min, pickup.tw_min + t + handling)
    pickup_arrival = min(pickup.tw_max, completion - t - handling)
    delivery_arrival = pickup_arrival + t + handling
    delivery_waiting = completion - delivery_arrival
    start = pickup_arrival - dist[0][pickup.location] * 60.0 / par.bike_speed
    return FirstPairTiming(
        completion_time=completion,
        pickup_arrival=pickup_arrival,
        pickup_waiting=0.0,
        delivery_arrival=delivery_arrival,
        delivery_waiting=delivery_waiting,
        start_time=start,
    )


def _first_pair(pickup, delivery, instance, worker=0):
    """(route, feasible): the stored one-pair route for ``init_first_pair``
    timing and whether it meets every condition, judged in the one replay
    that builds it."""
    timing = init_first_pair(pickup, delivery, instance)
    route, failures = schedule_route(instance, timing.start_time, (pickup, delivery), worker)
    return route, not failures


def materialize_first_pair(pickup, delivery, instance, worker=0):
    """Build the stored one-pair route for ``init_first_pair`` timing."""
    return _first_pair(pickup, delivery, instance, worker)[0]


# ---------------------------------------------------------------------------
# Inserting a pair into an existing route.
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class InsertionCandidate:
    """A feasible way to place a pair into a route."""

    pickup_id: int
    delivery_id: int
    gap: int
    time_extension: float


def _gap_count(route):
    return len(route.visits) // 2 + 1


def _new_start(route, gap, pair, instance):
    """The depot departure once ``pair`` is inserted at ``gap``: kept, except
    at gap 0, where ``init_first_pair`` times the new first pair."""
    if gap == 0:
        return init_first_pair(pair[0], pair[1], instance).start_time
    return route.start_time


def _simulate_insertion(route, gap, pair, instance):
    """Work out the consequences of inserting ``pair`` at ``gap`` without
    touching the stored route.

    Gaps are numbered 0..n for a route of n pairs: gap 0 squeezes the pair in
    front of the current first pickup (the depot departure is re-derived for
    it), gap n appends after the last delivery, anything else goes between
    two existing pairs.

    Returns (feasible, duration_change).  The schedule is
    propagated from the departure at the gap over the new pair and every
    later visit (never re-ordered), with the replay's own arithmetic, and
    the visits before the gap keep their stored values.  So ``feasible`` is
    the validator's verdict on the applied insertion, duty time included,
    and ``duration_change`` equals the applied route's change of duration
    exactly.  It is signed: an inserted EV leg may shortcut what used to be
    a long ride, pulling later visits earlier.
    """
    pickup, delivery = pair
    visits = route.visits
    n = len(visits) // 2
    if not 0 <= gap <= n:
        raise GapOutOfRange(f"gap {gap} outside 0..{n}")
    par = instance.parameters
    by_id = instance.requests_by_id
    new_start = _new_start(route, gap, pair, instance)
    order = [pickup, delivery]
    try:
        if gap == 0:
            dep, loc = new_start, 0
        else:
            prev = visits[2 * gap - 1]
            dep = prev.arrival + prev.waiting + par.park_time
            loc = by_id[prev.request_id].location
        order += [by_id[v.request_id] for v in visits[2 * gap:]]
    except KeyError as exc:
        raise UnknownRequest(f"no request with id {exc.args[0]}") from None
    _, dep, failures = propagate(instance, dep, loc, order)
    duration = dep + instance.distances[order[-1].location][0] * 60.0 / par.bike_speed - new_start
    feasible = not failures and duration <= par.duty_time + EPS
    return feasible, duration - route.duration


def time_extension(route, gap, pair, instance):
    """Exact change of route duration caused by inserting ``pair`` at ``gap``.

    Positive when the detour stretches the route, negative when the inserted
    EV leg shortcuts a slow ride.  When nothing downstream can absorb the
    shift this reduces to the plain sum of the added legs minus the waiting
    swallowed along the way.
    """
    _, duration_change = _simulate_insertion(route, gap, pair, instance)
    return duration_change


def insertion_feasible(route, gap, pair, instance):
    """True when inserting ``pair`` at ``gap`` keeps the route feasible.

    Exact for a feasible route: the verdict is True precisely when the
    applied insertion replays clean through the validator, duty time
    included.
    """
    feasible, _ = _simulate_insertion(route, gap, pair, instance)
    return feasible


def apply_insertion(route, gap, pair, instance):
    """Return the route with ``pair`` spliced in at ``gap``, fully re-timed."""
    pickup, delivery = pair
    visits = route.visits
    n = len(visits) // 2
    if not 0 <= gap <= n:
        raise GapOutOfRange(f"gap {gap} outside 0..{n}")
    order = []
    for i in range(n):
        if i == gap:
            order += [pickup, delivery]
        order += [
            instance.request(visits[2 * i].request_id),
            instance.request(visits[2 * i + 1].request_id),
        ]
    if gap == n:
        order += [pickup, delivery]
    start = _new_start(route, gap, pair, instance)
    return replay_route(instance, start, order, worker=route.worker)


def best_insertion(route, pair, instance):
    """Cheapest feasible gap for ``pair`` in ``route``: the one of smallest
    time extension, ties resolved toward the earliest gap.  None when no gap
    admits the pair."""
    best = None
    for gap in range(_gap_count(route)):
        feasible, change = _simulate_insertion(route, gap, pair, instance)
        if feasible and (best is None or change < best.time_extension - EPS):
            best = InsertionCandidate(pair[0].id, pair[1].id, gap, change)
    return best


# ---------------------------------------------------------------------------
# Construction drivers.
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class RhConfig:
    """Settings of the randomized construction driver."""

    iterations: int = 10000
    seed: int = 0
    objective: str = "profit"

    def __post_init__(self):
        if self.iterations < 1:
            raise ValueError("iterations must be at least 1")
        check_objective(self.objective)


def _orient(request, partner):
    if request.kind is RequestKind.PICKUP:
        return request, partner
    return partner, request


def _construct(instance, retained, partners, choose, worker_limit):
    """Shared construction skeleton of the deterministic and randomized
    drivers.

    ``choose(candidates, unserved, instance, current, routes)`` picks the
    next request to place from the currently placeable candidates, given
    the open route (None while none is open) and the list of closed routes;
    everything after that choice - partner coupling, first-pair timing,
    cheapest-gap insertion - is common.  A route closes when no
    candidate fits it; construction ends when a fresh route cannot take any
    pair or the workers run out.

    A request with no unserved partner left can never be served and is
    rejected.  ``live`` counts each unserved request's unserved partners:
    placing a pair lowers only the counts of its two requests' partners, and
    those that reach zero are rejected in id order (``retained`` comes in id
    order, as ``preprocess`` returns it).  The partner relation is symmetric,
    so a rejected request is nobody's live partner and one round suffices.
    """
    unserved = {r.id: r for r in retained}
    live = {rid: sum(p.id in unserved for p in partners[rid]) for rid in unserved}
    dead = [rid for rid in unserved if not live[rid]]
    rejected = []
    routes = []
    current = None
    blocked = set()
    while True:
        for rid in dead:
            rejected.append(unserved.pop(rid))
        dead = []
        candidates = [rid for rid in sorted(unserved) if rid not in blocked]
        if not candidates:
            if current is not None:
                routes.append(current)
                current = None
                blocked.clear()
                if len(routes) < worker_limit and unserved:
                    continue
            break
        rid = choose(candidates, unserved, instance, current, routes)
        request = unserved[rid]
        partner = next(p for p in partners[rid] if p.id in unserved)
        pickup, delivery = _orient(request, partner)
        placed = None
        if current is None:
            attempt, feasible = _first_pair(pickup, delivery, instance, worker=len(routes))
            if feasible:
                placed = attempt
        else:
            candidate = best_insertion(current, (pickup, delivery), instance)
            if candidate is not None:
                placed = apply_insertion(current, candidate.gap, (pickup, delivery), instance)
        if placed is None:
            blocked.add(rid)
            continue
        current = placed
        del unserved[pickup.id]
        del unserved[delivery.id]
        blocked.clear()
        for placed_id in (pickup.id, delivery.id):
            for p in partners[placed_id]:
                if p.id in unserved:
                    live[p.id] -= 1
                    if not live[p.id]:
                        dead.append(p.id)
        dead.sort()
    if current is not None:
        routes.append(current)
    rejected.extend(unserved.values())
    return routes, rejected


def _urgency_order(partners):
    """Picker of the most urgent candidate: lowest score, then lowest id."""

    def pick(candidates, unserved, instance, current, routes):
        scored = []
        for rid in candidates:
            live = [p for p in partners[rid] if p.id in unserved]
            scored.append((critical_factor(unserved[rid], live, instance), rid))
        return min(scored)[1]

    return pick


def run_ch(instance, objective="profit"):
    """Urgency-first construction.

    Serves the hardest request first: the unserved request of lowest urgency
    score is coupled with its nearest compatible partner and inserted where
    it extends the open route least; requests that lose their last partner
    are given up.  With the profit objective, routes that do not pay for
    their worker are discarded at the end.
    """
    check_objective(objective)
    partners = compatible_partners(instance)
    retained, _ = preprocess(instance, partners)
    routes, _ = _construct(
        instance, retained, partners, _urgency_order(partners), instance.parameters.worker_count
    )
    if objective == "profit":
        routes = paying_routes(routes, instance)
    return assemble_solution(routes, instance)


_TRIE_NODE_CAP = 1 << 16
_BLOCKED = -1
_FINISHED = -2


class _DrawTrie:
    """The draw graph of the constructions one ``run_rh`` call built.

    A node is a construction state at a pick with nothing blocked: the
    first pick, and each pick after a placement or a route close.  The rest
    of the construction then depends only on the closed and the open
    routes (the unserved requests are the retained ones not served that
    keep an unserved partner), so a node is keyed by the number of closed
    routes and the routes, each as (start time, visit order), and
    constructions that reach the same state share it.

    Whether an attempt is placed does not depend on what else is blocked,
    so ``rows[node][position]`` records once where trying the node's
    candidate at ``position`` leads: ``_BLOCKED``, the next node, or
    ``_FINISHED`` when the construction ends; None until tried.  The last
    slot records where the route close after every candidate was blocked
    leads.  ``_construct`` is a pure function of the draws, so a walk along
    recorded slots to ``_FINISHED`` repeats a construction already built.

    ``open`` counts the candidates of recorded nodes not tried yet; at 0,
    every walk ends on a finished construction.  (A close needs no count:
    the construction that reaches it records it.)  The graph holds at most
    ``_TRIE_NODE_CAP`` slots, a key counting one per route it names, so
    memory stays bounded at any iteration count.  A node refused for the
    cap leaves its slot open for good.
    """

    def __init__(self):
        self.rows = []
        self.states = {}
        self.held = 0
        self.open = 0

    def walk(self, rng):
        """Draw from ``rng`` along the recorded slots, exactly as the
        construction would.  Returns (built, path): ``built`` is True when
        the draws end on a finished construction; ``path`` lists the
        (candidate count, draw) pairs made, a prefix to replay otherwise."""
        path = []
        node = 0 if self.rows else None
        while node is not None and node != _FINISHED:
            row = self.rows[node]
            left = list(range(len(row) - 1))
            node = _BLOCKED
            while node == _BLOCKED:
                slot = -1
                if left:
                    draw = rng.randrange(len(left))
                    path.append((len(left), draw))
                    slot = left.pop(draw)
                node = row[slot]
        return node is not None, path

    def _add(self, count, size):
        """A new node offering ``count`` candidates; ``size`` more slots
        count against the cap for its key."""
        self.rows.append([None] * (count + 1))
        self.open += count
        self.held += count + 1 + size
        return len(self.rows) - 1

    def _node(self, entry, named):
        """The node of the pick that made ``entry`` (count, draw, open route,
        number of closed routes), added if new; ``named`` holds each built
        route as (start time, visit order).  None when the cap refuses it."""
        count, _, current, k = entry
        key = (k, *named[:k]) if current is None else (
            k, *named[:k], (current.start_time, current.request_ids))
        node = self.states.get(key)
        if node is None and self.held + count + 1 + len(key) <= _TRIE_NODE_CAP:
            node = self.states[key] = self._add(count, len(key))
        return node

    def record(self, path, routes):
        """Add the finished construction that made the picks in ``path`` and
        built ``routes``, as far as the cap allows.  Each ``path`` entry of
        a pick with nothing blocked also carries the open route and the
        number of closed routes there.  An attempt's outcome is read off
        the pick after it: one with something blocked follows a blocked
        attempt, one with a route open a placement, one with none a route
        close; after the last pick, the placed pairs tell."""
        if not self.rows:
            self._add(path[0][0] if path else 0, 0)
        named = [(route.start_time, route.request_ids) for route in routes]
        pairs = sum(len(visits) for _, visits in named) // 2
        end = len(path)
        placed = step = node = 0
        while node != _FINISHED:
            row = self.rows[node]
            left = list(range(len(row) - 1))
            node = _BLOCKED
            while node == _BLOCKED and left:
                slot = left.pop(path[step][1])
                step += 1
                node = row[slot]
                if node is None:
                    after = path[step] if step < end else None
                    if after is None:
                        node = _FINISHED if placed + 1 == pairs else _BLOCKED
                    elif len(after) == 2 or after[2] is None:
                        node = _BLOCKED
                    else:
                        node = self._node(after, named)
                        if node is None:
                            return
                    row[slot] = node
                    self.open -= 1
                placed += node != _BLOCKED
            if node == _BLOCKED:
                node = row[-1]
                if node is None:
                    node = _FINISHED if step == end else self._node(path[step], named)
                    if node is None:
                        self.open += 1
                        return
                    row[-1] = node


def run_rh(instance, config=None):
    """Randomized best-of-many construction.

    Each iteration rebuilds solutions with the urgency-driven choice replaced
    by a uniform draw over the placeable requests; partner coupling and
    cheapest-gap insertion stay exactly as in the deterministic driver.  The
    best solution under the configured objective wins, earlier iterations
    keeping ties.  Fully deterministic for a given seed: iteration i draws
    from its own generator seeded from (seed, i).

    An iteration whose draws lead to a construction already built, by the
    same draws or through construction states other iterations reached, is
    skipped without building it: under the earliest-wins tie rule a repeat
    can never win, so the result is the same as building every iteration.
    Once every candidate of every state reached has been tried, every later
    iteration would be such a repeat, and the loop stops early with the
    same result; ``config.iterations`` is an upper bound.  The draw graph
    is bounded by ``_TRIE_NODE_CAP``; once it is full, only repeats of what
    it holds are skipped and every iteration runs.
    """
    config = config or RhConfig()
    partners = compatible_partners(instance)
    retained, _ = preprocess(instance, partners)
    limit = instance.parameters.worker_count
    built = _DrawTrie()
    best = None
    best_value = None
    for i in range(config.iterations):
        rng = random.Random(config.seed * 1_000_003 + i)
        repeat, path = built.walk(rng)
        if repeat:
            continue
        replay = [draw for _, draw in reversed(path)]

        def pick(candidates, unserved, instance, current, routes):
            if replay:
                return candidates[replay.pop()]
            count = len(candidates)
            draw = rng.randrange(count)
            # Nothing blocked: a pick ``_DrawTrie`` keys by state.
            path.append((count, draw, current, len(routes)) if count == len(unserved)
                        else (count, draw))
            return candidates[draw]

        routes, _ = _construct(instance, retained, partners, pick, limit)
        built.record(path, routes)
        if config.objective == "profit":
            routes = paying_routes(routes, instance)
        solution = assemble_solution(routes, instance)
        value = objective_value(solution, config.objective)
        if best is None or value > best_value:
            best, best_value = solution, value
        if not built.open:
            break
    return best
