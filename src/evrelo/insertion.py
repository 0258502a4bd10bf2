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

from .errors import GapOutOfRange
from .feasibility import charge_at_departure, replay_route, validate_route
from .model import EPS, RequestKind, assemble_solution

NEG_INF = float("-inf")


def _ev_leg(p, d, instance):
    """Driving minutes between a pickup and a delivery parking."""
    return instance.ev_minutes(p.location, d.location)


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
    t = _ev_leg(pickup, delivery, instance)
    if pickup.tw_min + t + par.load_time + par.park_time > delivery.tw_max + EPS:
        return False
    spent = instance.distance(pickup.location, delivery.location) / par.full_range
    slack = (delivery.tw_max - delivery.tw_min) / par.recharge_time
    if pickup.battery - spent + slack < delivery.battery - EPS:
        return False
    tour = (
        instance.bike_minutes(0, pickup.location)
        + instance.bike_minutes(delivery.location, 0)
        + max(t + par.load_time, delivery.tw_min - pickup.tw_max)
        + par.park_time
    )
    return tour <= par.duty_time + EPS


def compatible_partners(instance):
    """For every request id, the opposite-kind requests it can pair with,
    sorted by parking distance (ties by id).  Computed once per instance;
    the screening conditions do not depend on solver state."""
    partners = {}
    pickups = [r for r in instance.requests if r.kind is RequestKind.PICKUP]
    deliveries = [r for r in instance.requests if r.kind is RequestKind.DELIVERY]
    for p in pickups:
        good = [d for d in deliveries if pair_necessary_feasible(p, d, instance)]
        good.sort(key=lambda d: (instance.distance(p.location, d.location), d.id))
        partners[p.id] = tuple(good)
    for d in deliveries:
        good = [p for p in pickups if pair_necessary_feasible(p, d, instance)]
        good.sort(key=lambda p: (instance.distance(p.location, d.location), p.id))
        partners[d.id] = tuple(good)
    return partners


def critical_factor(request, opposite, instance):
    """Urgency score of a request against the still-unserved opposite set.

    Lower is more urgent.  For a pickup: the latest useful departure over all
    compatible deliveries minus the window opening.  For a delivery: the
    window closing minus the earliest possible hand-over from a compatible
    pickup.  Negative means the request can no longer be served; minus
    infinity means nothing can be paired with it at all.
    """
    best = None
    if request.kind is RequestKind.PICKUP:
        for d in opposite:
            if d.kind is not RequestKind.DELIVERY or not pair_necessary_feasible(request, d, instance):
                continue
            value = d.tw_max - _ev_leg(request, d, instance)
            if best is None or value > best:
                best = value
        return NEG_INF if best is None else best - request.tw_min
    for p in opposite:
        if p.kind is not RequestKind.PICKUP or not pair_necessary_feasible(p, request, instance):
            continue
        value = p.tw_min + _ev_leg(p, request, instance)
        if best is None or value < best:
            best = value
    return NEG_INF if best is None else request.tw_max - best


def preprocess(instance):
    """Purge hopeless requests and balance the pickup and delivery sets.

    Repeats two rules until nothing changes: drop every request whose urgency
    score is negative (or that has no partner left), then, if one side is
    larger, drop its surplus lowest-scored requests.  Each removal can lower
    the scores of the survivors, hence the loop; on exit the two sides have
    equal size and every retained request scores non-negative against the
    retained opposite side.

    Returns (retained, rejected) as tuples of requests in id order.
    """
    retained = {r.id: r for r in instance.requests}
    rejected = []
    while True:
        current = list(retained.values())
        scores = {
            r.id: critical_factor(r, [o for o in current if o.kind is not r.kind], instance)
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
    t = _ev_leg(pickup, delivery, instance)
    handling = par.park_time + par.load_time
    completion = max(delivery.tw_min, pickup.tw_min + t + handling)
    pickup_arrival = min(pickup.tw_max, completion - t - handling)
    delivery_arrival = pickup_arrival + t + handling
    delivery_waiting = completion - delivery_arrival
    start = pickup_arrival - instance.bike_minutes(0, pickup.location)
    return FirstPairTiming(
        completion_time=completion,
        pickup_arrival=pickup_arrival,
        pickup_waiting=0.0,
        delivery_arrival=delivery_arrival,
        delivery_waiting=delivery_waiting,
        start_time=start,
    )


def materialize_first_pair(pickup, delivery, instance, worker=0):
    """Build the stored one-pair route for ``init_first_pair`` timing."""
    timing = init_first_pair(pickup, delivery, instance)
    return replay_route(instance, timing.start_time, (pickup, delivery), worker=worker)


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


def _simulate_insertion(route, gap, pair, instance):
    """Work out the consequences of inserting ``pair`` at ``gap`` without
    touching the stored route.

    Gaps are numbered 0..n for a route of n pairs: gap 0 squeezes the pair in
    front of the current first pickup (the depot departure is re-derived for
    it), gap n appends after the last delivery, anything else goes between
    two existing pairs.

    Returns (feasible, duration_change, new_start).  ``duration_change`` is
    exact and signed: an inserted EV leg may shortcut what used to be a long
    ride, pulling later visits earlier.  Later visits are never re-ordered;
    their arrival shift is propagated exactly, window floors absorbing what
    they can, and every downstream window and battery condition is re-checked
    on the shifted values.  ``feasible`` means the route obtained by applying
    the insertion replays clean, duty time included.
    """
    pickup, delivery = pair
    visits = route.visits
    n = len(visits) // 2
    if not 0 <= gap <= n:
        raise GapOutOfRange(f"gap {gap} outside 0..{n}")
    par = instance.parameters
    feasible = True

    if gap == 0:
        timing = init_first_pair(pickup, delivery, instance)
        new_start = timing.start_time
        a_p = timing.pickup_arrival
        s_p = a_p  # no waiting at the first pickup by construction
        a_d = timing.delivery_arrival - par.park_time  # stored-schedule arrival
        dep_d = timing.completion_time
    else:
        new_start = route.start_time
        prev = visits[2 * gap - 1]
        prev_req = instance.request(prev.request_id)
        dep_prev = prev.arrival + prev.waiting + par.park_time
        a_p = dep_prev + instance.bike_minutes(prev_req.location, pickup.location)
        if a_p > pickup.tw_max + EPS:
            feasible = False
        s_p = max(a_p, pickup.tw_min)
        a_d = s_p + par.load_time + _ev_leg(pickup, delivery, instance)
        dep_d = max(a_d + par.park_time, delivery.tw_min)

    if a_d > delivery.tw_max + EPS:
        feasible = False
    charge = charge_at_departure(pickup, s_p, par)
    spent = instance.distance(pickup.location, delivery.location) / par.full_range
    if charge - spent < -EPS:
        feasible = False
    elif charge - spent + (delivery.tw_max - a_d) / par.recharge_time < delivery.battery - EPS:
        feasible = False

    if gap == n:
        new_end = dep_d + instance.bike_minutes(delivery.location, 0)
        duration_change = (new_end - new_start) - route.duration
    else:
        successor = visits[2 * gap]
        succ_req = instance.request(successor.request_id)
        delta = dep_d + instance.bike_minutes(delivery.location, succ_req.location) - successor.arrival

        # Propagate the shift across the remaining pairs exactly as a replay
        # would, re-checking each condition on the shifted schedule.
        for i in range(gap, n):
            pv, dv = visits[2 * i], visits[2 * i + 1]
            pr = instance.request(pv.request_id)
            dr = instance.request(dv.request_id)
            a_new = pv.arrival + delta
            if a_new > pr.tw_max + EPS:
                feasible = False
            s_old = pv.arrival + pv.waiting
            s_new = max(a_new, pr.tw_min)
            delta = s_new - s_old
            c_new = charge_at_departure(pr, s_new, par)
            ad_new = dv.arrival + delta
            if ad_new > dr.tw_max + EPS:
                feasible = False
            spent_i = instance.distance(pr.location, dr.location) / par.full_range
            if c_new - spent_i < -EPS:
                feasible = False
            elif c_new - spent_i + (dr.tw_max - ad_new) / par.recharge_time < dr.battery - EPS:
                feasible = False
            dep_old = dv.arrival + dv.waiting + par.park_time
            dep_new = max(ad_new + par.park_time, dr.tw_min)
            delta = dep_new - dep_old
        duration_change = (route.end_time + delta - new_start) - route.duration

    if route.duration + duration_change > par.duty_time + EPS:
        feasible = False
    return feasible, duration_change, new_start


def time_extension(route, gap, pair, instance):
    """Exact change of route duration caused by inserting ``pair`` at ``gap``.

    Positive when the detour stretches the route, negative when the inserted
    EV leg shortcuts a slow ride.  When nothing downstream can absorb the
    shift this reduces to the plain sum of the added legs minus the waiting
    swallowed along the way.
    """
    _, duration_change, _ = _simulate_insertion(route, gap, pair, instance)
    return duration_change


def insertion_feasible(route, gap, pair, instance):
    """True when inserting ``pair`` at ``gap`` keeps the route feasible.

    Sufficient by construction: a True verdict means the applied insertion
    replays clean through the validator, duty time included.
    """
    feasible, _, _ = _simulate_insertion(route, gap, pair, instance)
    return feasible


def apply_insertion(route, gap, pair, instance):
    """Return the route with ``pair`` spliced in at ``gap``, fully re-timed."""
    pickup, delivery = pair
    visits = route.visits
    n = len(visits) // 2
    if not 0 <= gap <= n:
        raise GapOutOfRange(f"gap {gap} outside 0..{n}")
    _, _, new_start = _simulate_insertion(route, gap, pair, instance)
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
    return replay_route(instance, new_start, order, worker=route.worker)


def best_insertion(route, pair, instance):
    """Cheapest feasible gap for ``pair`` in ``route``: the one of smallest
    time extension, ties resolved toward the earliest gap.  None when no gap
    admits the pair."""
    best = None
    for gap in range(_gap_count(route)):
        feasible, change, _ = _simulate_insertion(route, gap, pair, instance)
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
        if self.objective not in ("profit", "requests"):
            raise ValueError(f"unknown objective {self.objective!r}")


def _orient(request, partner):
    if request.kind is RequestKind.PICKUP:
        return request, partner
    return partner, request


def _drop_unprofitable(routes, instance):
    """Remove routes whose revenue does not cover the worker cost."""
    cost = instance.parameters.worker_cost
    return [r for r in routes if r.revenue(instance) >= cost - EPS]


def _construct(instance, retained, partners, choose, worker_limit):
    """Shared construction skeleton of the deterministic and randomized
    drivers.

    ``choose`` picks the next request to place from the currently placeable
    candidates; everything after that choice - partner coupling, first-pair
    timing, cheapest-gap insertion - is common.  A route closes when no
    candidate fits it; construction ends when a fresh route cannot take any
    pair or the workers run out.
    """
    unserved = {r.id: r for r in retained}
    rejected = []
    routes = []
    current = None
    blocked = set()
    while True:
        # A request with no live partner can never be served any more.
        for rid in list(unserved):
            req = unserved[rid]
            if not any(pid in unserved for pid in (p.id for p in partners[rid])):
                rejected.append(req)
                del unserved[rid]
                blocked.discard(rid)
        candidates = [rid for rid in sorted(unserved) if rid not in blocked]
        if not candidates:
            if current is not None:
                routes.append(current)
                current = None
                blocked.clear()
                if len(routes) < worker_limit and unserved:
                    continue
            break
        rid = choose(candidates, unserved, instance)
        request = unserved[rid]
        partner = next(p for p in partners[rid] if p.id in unserved)
        pickup, delivery = _orient(request, partner)
        placed = None
        if current is None:
            attempt = materialize_first_pair(pickup, delivery, instance, worker=len(routes))
            if validate_route(attempt, instance).ok:
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
    if current is not None:
        routes.append(current)
    rejected.extend(unserved.values())
    return routes, rejected


def _urgency_order(candidates, unserved, instance):
    """Most urgent candidate first: lowest score, then lowest id."""
    pool = list(unserved.values())
    scored = []
    for rid in candidates:
        req = unserved[rid]
        cf = critical_factor(req, [o for o in pool if o.kind is not req.kind], instance)
        scored.append((cf, rid))
    return min(scored)[1]


def run_ch(instance, objective="profit", drop_unprofitable=None):
    """Urgency-first construction.

    Serves the hardest request first: the unserved request of lowest urgency
    score is coupled with its nearest compatible partner and inserted where
    it extends the open route least; requests that lose their last partner
    are given up.  With the profit objective, routes that do not pay for
    their worker are discarded at the end (disable via
    ``drop_unprofitable=False``).
    """
    if objective not in ("profit", "requests"):
        raise ValueError(f"unknown objective {objective!r}")
    if drop_unprofitable is None:
        drop_unprofitable = objective == "profit"
    retained, _ = preprocess(instance)
    partners = compatible_partners(instance)
    routes, _ = _construct(
        instance, retained, partners, _urgency_order, instance.parameters.worker_count
    )
    if drop_unprofitable:
        routes = _drop_unprofitable(routes, instance)
    return assemble_solution(routes, instance)


_TRIE_NODE_CAP = 1 << 16


class _DrawTrie:
    """The draw sequences of the constructions one ``run_rh`` call built.

    ``_construct`` is a pure function of the indices the picker draws, so a
    sequence recorded here to its end names a construction already built.
    Node 0 is the empty sequence; ``counts[node]`` is the number of
    candidates offered at the node's draw, 0 where the construction
    finished; the child reached by ``draw`` is ``children[node * width +
    draw]``.  At most ``_TRIE_NODE_CAP`` nodes are kept: a long construction
    makes hundreds of draws, so an unbounded trie grows by tens of kilobytes
    per iteration.
    """

    def __init__(self, width):
        self.width = width
        self.counts = []
        self.children = {}

    def walk(self, rng):
        """Draw from ``rng`` along the recorded sequences, exactly as the
        construction would.  Returns (built, path): ``built`` is True when
        the draws end on a finished construction; ``path`` lists the
        (candidate count, draw) pairs made, a prefix to replay otherwise."""
        path = []
        node = 0 if self.counts else None
        while node is not None:
            count = self.counts[node]
            if not count:
                return True, path
            draw = rng.randrange(count)
            path.append((count, draw))
            node = self.children.get(node * self.width + draw)
        return False, path

    def record(self, path):
        """Add the finished construction that made the draws in ``path``,
        as far as the node cap allows."""
        counts = [count for count, _ in path] + [0]
        if not self.counts:
            self.counts.append(counts[0])
        node = 0
        for step, (_, draw) in enumerate(path):
            key = node * self.width + draw
            child = self.children.get(key)
            if child is None:
                if len(self.counts) >= _TRIE_NODE_CAP:
                    return
                child = self.children[key] = len(self.counts)
                self.counts.append(counts[step + 1])
            node = child


def run_rh(instance, config=None):
    """Randomized best-of-many construction.

    Each iteration rebuilds solutions with the urgency-driven choice replaced
    by a uniform draw over the placeable requests; partner coupling and
    cheapest-gap insertion stay exactly as in the deterministic driver.  The
    best solution under the configured objective wins, earlier iterations
    keeping ties.  Fully deterministic for a given seed: iteration i draws
    from its own generator seeded from (seed, i).

    An iteration whose draws repeat an earlier iteration's construction is
    skipped without building it: under the earliest-wins tie rule a repeat
    can never win, so the result is the same as building every iteration.
    The draw sequences are kept in a trie bounded to ``_TRIE_NODE_CAP``
    nodes; once it is full, only repeats of what it holds are skipped.
    """
    config = config or RhConfig()
    retained, _ = preprocess(instance)
    partners = compatible_partners(instance)
    drop = config.objective == "profit"
    limit = instance.parameters.worker_count
    built = _DrawTrie(width=max(len(retained), 1))
    best = None
    best_value = None
    for i in range(config.iterations):
        rng = random.Random(config.seed * 1_000_003 + i)
        repeat, path = built.walk(rng)
        if repeat:
            continue
        replay = [draw for _, draw in reversed(path)]

        def pick(candidates, unserved, instance):
            if replay:
                return candidates[replay.pop()]
            draw = rng.randrange(len(candidates))
            path.append((len(candidates), draw))
            return candidates[draw]

        routes, _ = _construct(instance, retained, partners, pick, limit)
        built.record(path)
        if drop:
            routes = _drop_unprofitable(routes, instance)
        solution = assemble_solution(routes, instance)
        value = solution.profit if config.objective == "profit" else len(solution.served)
        if best is None or value > best_value:
            best, best_value = solution, value
    return best
