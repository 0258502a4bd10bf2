"""Pair-based route construction.

This module houses the structured heuristics: urgency scoring of requests,
screening of pickup/delivery pairs, the zero-waiting timing of the first pair
of a route, the exact time-extension arithmetic for inserting a pair into a
route, the empty one included, and the one best-of-walks driver built on
top: a deterministic urgency-first construction (one walk) and its
randomized best-of-many variant (one uniform draw per walk).
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field

from .errors import GapOutOfRange, UnknownRequest
from .feasibility import propagate, replay_route, route_end, route_start
from .model import (
    EPS,
    RequestKind,
    RouteSchedule,
    ScheduledVisit,
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
    the actual schedule).  Failing one is meant to prove the pair useless,
    but the delivery-window screen adds ``park_time``, which the validator
    does not, so it drops some pairs whose one-pair route validates
    (ROADMAP item 2).  The duty screen (the depot ride out to the pickup and
    home from the delivery) is a necessary condition only when the distance
    matrix satisfies the triangle inequality: only then is a route serving
    the pair anywhere no shorter than the one-pair route.  Every generated
    matrix does, and ``load_instance`` rejects a break larger than EPS, so
    a loaded instance is metric within EPS; an ``Instance`` built in
    process is not checked.
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
    pickups, deliveries = instance.pickups, instance.deliveries
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
    # Driving times with ``propagate``'s arithmetic.
    dist = instance.distances
    ev = instance.parameters.ev_speed
    if request.kind is RequestKind.PICKUP:
        row = dist[request.location]
        latest = max(d.tw_max - row[d.location] * 60.0 / ev for d in partners)
        return latest - request.tw_min
    earliest = min(p.tw_min + dist[p.location][request.location] * 60.0 / ev for p in partners)
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


def _first_pair_times(pickup, delivery, instance):
    """(completion, pickup arrival, delivery arrival, depot departure) of
    ``init_first_pair``'s timing, without building a ``FirstPairTiming``."""
    par = instance.parameters
    dist = instance.distances
    t = dist[pickup.location][delivery.location] * 60.0 / par.ev_speed
    handling = par.park_time + par.load_time
    completion = max(delivery.tw_min, pickup.tw_min + t + handling)
    pickup_arrival = min(pickup.tw_max, completion - t - handling)
    start = route_start(instance, pickup, pickup_arrival)
    return completion, pickup_arrival, pickup_arrival + t + handling, start


def init_first_pair(pickup, delivery, instance):
    """Zero-waiting timing for a pair that opens a fresh route.

    The depot departure is back-dated so the worker reaches the pickup at
    the latest moment that still meets the delivery window opening, capped
    by the pickup window closing (in which case the delivery incurs the
    residual wait).
    """
    completion, pickup_arrival, delivery_arrival, start = _first_pair_times(
        pickup, delivery, instance)
    return FirstPairTiming(
        completion_time=completion,
        pickup_arrival=pickup_arrival,
        pickup_waiting=0.0,
        delivery_arrival=delivery_arrival,
        delivery_waiting=completion - delivery_arrival,
        start_time=start,
    )


# The route of no pairs, depot to depot: a route opens by inserting its
# first pair into it, at gap 0.
_EMPTY_ROUTE = RouteSchedule(worker=0, start_time=0.0, visits=(), end_time=0.0)


def materialize_first_pair(pickup, delivery, instance):
    """The stored one-pair route for ``init_first_pair`` timing: the pair
    inserted into the empty route."""
    return apply_insertion(_EMPTY_ROUTE, 0, (pickup, delivery), instance)


# ---------------------------------------------------------------------------
# Inserting a pair into an existing route.
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class InsertionCandidate:
    """A feasible way to place a pair into a route, and the route it
    places."""

    pickup_id: int
    delivery_id: int
    gap: int
    time_extension: float
    route: RouteSchedule


def _pair_head(pair, instance):
    """(opening, stops, dep, ok) of ``pair`` at gap 0: the route's start
    (``init_first_pair``'s), the pair alone walked from it by a verdict-only
    ``propagate``, the departure from its delivery and whether the walk
    passed.  The walk carries only a departure and a location from stop to
    stop, so gap 0 of any route is the head followed by the route's
    requests walked from (``dep``, the delivery's location), bit for bit."""
    opening = _first_pair_times(pair[0], pair[1], instance)[3]
    stops, dep, failures = propagate(instance, opening, 0, pair, verdict_only=True)
    return opening, stops, dep, not failures


def _route_requests(route, instance):
    """The requests of ``route``'s visits, in visit order."""
    by_id = instance.requests_by_id
    try:
        return [by_id[v.request_id] for v in route.visits]
    except KeyError as exc:
        raise UnknownRequest(f"no request with id {exc.args[0]}") from None


def _at_gap(route, gap, pair, requests, instance):
    """(start, dep, loc, order) of inserting ``pair`` at ``gap`` of
    ``route``, whose visits are ``requests``: the route's depot departure
    afterwards (at gap 0 the pair's ``init_first_pair`` depot departure,
    else kept), the departure from the stop before the gap and its matrix
    location, and the pair followed by the requests after the gap.

    Gaps are numbered 0..n for a route of n pairs: gap 0 squeezes the pair in
    front of the current first pickup, gap n appends after the last
    delivery, anything else goes between two existing pairs.  The departure
    is ``propagate``'s own expression on the stored visit.
    """
    if not 0 <= gap <= len(requests) // 2:
        raise GapOutOfRange(f"gap {gap} outside 0..{len(requests) // 2}")
    if gap == 0:
        opening = _first_pair_times(pair[0], pair[1], instance)[3]
        return opening, opening, 0, [*pair, *requests]
    prev = route.visits[2 * gap - 1]
    dep = prev.arrival + prev.waiting + instance.parameters.park_time
    return route.start_time, dep, requests[2 * gap - 1].location, [*pair, *requests[2 * gap:]]


def _judge(instance, start, dep, loc, order, last, duration, verdict_only=False):
    """(stops, feasible, end, change) of a route that left the depot at
    ``start`` and goes on from leaving ``loc`` at ``dep`` over ``order``,
    ``last`` being its last stop: ``propagate``'s stops, the validator's
    verdict (duty time included), the return to the depot and the change
    of duration against ``duration``."""
    stops, dep, failures = propagate(instance, dep, loc, order, verdict_only=verdict_only)
    end, fits = route_end(instance, start, dep, last)
    return stops, not failures and fits, end, (end - start) - duration


def _simulate_insertion(route, gap, pair, instance):
    """Work out the consequences of inserting ``pair`` at ``gap`` without
    touching the stored route.

    On ``_EMPTY_ROUTE`` the one gap is 0, so a route opens with
    ``init_first_pair``'s timing of its first pair.  Returns (feasible,
    duration_change).  The schedule is propagated from the departure at
    the gap (``_at_gap``) over the new pair and every later visit (never
    re-ordered), with the replay's own arithmetic, and the visits before
    the gap keep their stored values.  So ``feasible`` is the validator's
    verdict on the applied insertion, duty time included, and
    ``duration_change`` equals the applied route's change of duration
    exactly.  It is signed: an inserted EV leg may shortcut what used to be
    a long ride, pulling later visits earlier.
    """
    requests = _route_requests(route, instance)
    start, dep, loc, order = _at_gap(route, gap, pair, requests, instance)
    _, feasible, _, change = _judge(instance, start, dep, loc, order, order[-1], route.duration)
    return feasible, change


def time_extension(route, gap, pair, instance):
    """Exact change of route duration caused by inserting ``pair`` at ``gap``.

    Positive when the detour stretches the route, negative when the inserted
    EV leg shortcuts a slow ride.  When nothing downstream can absorb the
    shift this reduces to the plain sum of the added legs minus the waiting
    swallowed along the way.
    """
    _, duration_change = _simulate_insertion(route, gap, pair, instance)
    return duration_change


def apply_insertion(route, gap, pair, instance):
    """Return the route with ``pair`` spliced in at ``gap``, fully re-timed."""
    requests = _route_requests(route, instance)
    start, _, _, order = _at_gap(route, gap, pair, requests, instance)
    return replay_route(instance, start, requests[:2 * gap] + order)


def best_insertion(route, pair, instance, head=None):
    """Cheapest feasible gap for ``pair`` in ``route``: the one of smallest
    time extension, ties resolved toward the earliest gap, with the route
    that places the pair there.  None when no gap admits the pair.

    ``head`` is ``_pair_head(pair, instance)``, computed when not given.
    Two cuts leave unwalked the gaps that cannot fit: gap 0 fails with the
    head, or at the route's first pickup reached from the head; and the
    one scan of gaps g >= 1 stops at the first whose stored departure
    already misses the pair's pickup window, or its delivery window with
    the load time and the EV leg added (``propagate``'s comparisons, in its
    association).  Every other gap is judged as ``_simulate_insertion``
    judges it, with a verdict-only ``propagate``.  The placed route keeps
    the visits before the winning gap and takes the rest from that gap's
    own stops: the stored values are what a replay from the same start
    recomputes, so it equals ``apply_insertion``'s route.

    Preconditions: ``route`` is a replay (its stored departures never
    decrease along it) and distances are non-negative (a departure is then
    no later than the arrival it leads to).  ``load_instance`` enforces the
    second; an ``Instance`` built in process does not.  Outside them the
    cuts can only miss a feasible gap, never accept an infeasible one.
    """
    if head is None:
        head = _pair_head(pair, instance)
    opening, head_stops, head_dep, head_ok = head
    pickup, delivery = pair
    par = instance.parameters
    dist = instance.distances
    visits = route.visits
    duration = route.duration
    requests = best = None
    # Gap 0: the head, then propagate's first comparison at the route's
    # first pickup.
    if head_ok and visits:
        first = instance.requests_by_id.get(visits[0].request_id)
        if first is None:
            first = instance.request(visits[0].request_id)  # raises UnknownRequest
        arrival = head_dep + dist[delivery.location][first.location] * 60.0 / par.bike_speed
        head_ok = arrival <= first.tw_max + EPS
    if head_ok:
        requests = _route_requests(route, instance)
        stops, feasible, end, change = _judge(
            instance, opening, head_dep, delivery.location, requests,
            requests[-1] if requests else delivery, duration, verdict_only=True)
        if feasible:
            best = 0, change, opening, end, [*pair, *requests], [*head_stops, *stops]
    # Gaps >= 1 end at the first departure that misses the pair's windows:
    # every later departure is no earlier.
    park, load = par.park_time, par.load_time
    pickup_close, delivery_close = pickup.tw_max + EPS, delivery.tw_max + EPS
    ev_leg = dist[pickup.location][delivery.location] * 60.0 / par.ev_speed
    for gap in range(1, len(visits) // 2 + 1):
        prev = visits[2 * gap - 1]
        dep = prev.arrival + prev.waiting + park
        if not (dep <= pickup_close and dep + load + ev_leg <= delivery_close):
            break
        if requests is None:
            requests = _route_requests(route, instance)
        order = [*pair, *requests[2 * gap:]]
        stops, feasible, end, change = _judge(
            instance, route.start_time, dep, requests[2 * gap - 1].location, order, order[-1],
            duration, verdict_only=True)
        if feasible and (best is None or change < best[1] - EPS):
            best = gap, change, route.start_time, end, order, stops
    if best is None:
        return None
    gap, change, start, end, order, stops = best
    visits = visits[:2 * gap] + tuple(
        ScheduledVisit(r.id, *stop) for r, stop in zip(order, stops))
    placed = RouteSchedule(worker=0, start_time=start, visits=visits, end_time=end)
    return InsertionCandidate(pair[0].id, pair[1].id, gap, change, placed)


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
        for name in ("iterations", "seed"):
            value = getattr(self, name)
            if isinstance(value, bool) or not isinstance(value, int):
                raise ValueError(f"{name} must be an integer, got {value!r}")
        if self.iterations < 1:
            raise ValueError("iterations must be at least 1")
        check_objective(self.objective)


def _orient(request, partner):
    if request.kind is RequestKind.PICKUP:
        return request, partner
    return partner, request


_GRAPH_CAP = 1 << 16
_BLOCKED = object()


@dataclass(eq=False, slots=True)
class _State:
    """A construction state at a pick with nothing blocked, or finished
    (a ``key`` of one item).

    ``routes`` are the closed routes (route i is worker i's), ``current``
    the open one or None.  ``unserved`` maps the unserved ids, in
    increasing order, to their requests; they are the candidates of a
    pick, and each has an unserved partner.  ``after`` maps a candidate id
    to ``_BLOCKED`` or the next state, and None to where the route close
    leads.
    """

    key: tuple
    routes: tuple
    current: object
    unserved: dict
    after: dict = field(default_factory=dict)


class _Graph:
    """The construction states of one solve over ``retained`` (in id
    order, as ``preprocess`` returns it), shared by its walks.

    A state's ``key`` is (closed route keys, open route key), a route keyed
    by (start time, visit order) and no open route by None; a finished
    state's is (route keys,).  The key fixes the rest of the construction,
    and whether a pair is placed does not depend on what else is blocked,
    so ``step`` evaluates a step once and then follows ``after``.
    ``root`` is the first state, where a request with no partner retained
    is given up.  ``outcomes`` maps each attempt evaluated, (open route
    key, pickup id, delivery id), to the route that places the pair, or
    None if no gap admits it; a route opens by insertion into
    ``_EMPTY_ROUTE``, so an opening is an attempt like any other.  The
    placed route is ``best_insertion``'s, built from the stops that judged
    the winning gap, so a placement is propagated once.  ``openings`` maps
    (pickup id, delivery id) to the pair's head (``_pair_head``: its gap-0
    depot departure and the pair walked from it), computed at the pair's
    first attempt and passed to every ``best_insertion`` of the pair.

    ``open`` counts the untried candidates of the states held and ``ends``
    the finished states made.  A state weighs two, plus one per closed
    route and four per unserved request.  States are held up to
    ``_GRAPH_CAP`` of weight and ``outcomes`` up to as many entries.  A
    state the cap refuses serves only the walk at hand, the step to it
    stays untried, and ``refused`` is set; ``open`` then no longer counts.
    """

    def __init__(self, instance, retained, partners):
        self.instance = instance
        self.retained = retained
        self.partners = partners
        self.states = {}
        self.outcomes = {}
        self.openings = {}
        self.held = 0
        self.open = 0
        self.ends = 0
        self.refused = False
        ids = {r.id for r in retained}
        unserved = {r.id: r for r in retained if any(p.id in ids for p in partners[r.id])}
        self.root = self._reach(((), None), (), None, unserved)

    def step(self, state, rid):
        """Where trying candidate ``rid`` leads, ``_BLOCKED`` or a state;
        for None, where closing the open route leads."""
        nxt = state.after.get(rid)
        if nxt is None:
            nxt = self._close(state) if rid is None else self._place(state, rid)
            if nxt is _BLOCKED or self.states.get(nxt.key) is nxt:
                state.after[rid] = nxt
                if rid is not None:
                    self.open -= 1
        return nxt

    def _place(self, state, rid):
        """Couple ``rid`` with its nearest unserved partner and place the
        pair at the cheapest gap of the open route, or of ``_EMPTY_ROUTE``
        to open the next one; then give up each partner of the pair that
        has no unserved partner left."""
        unserved = state.unserved
        for partner in self.partners[rid]:
            if partner.id in unserved:
                break
        pair = pickup, delivery = _orient(unserved[rid], partner)
        closed, route_key = state.key
        attempt = (route_key, pickup.id, delivery.id)
        placed = self.outcomes.get(attempt, _BLOCKED)
        if placed is _BLOCKED:  # not evaluated yet
            ids = attempt[1:]
            head = self.openings.get(ids)
            if head is None:
                head = self.openings[ids] = _pair_head(pair, self.instance)
            candidate = best_insertion(state.current or _EMPTY_ROUTE, pair, self.instance, head)
            placed = None if candidate is None else candidate.route
            if len(self.outcomes) < _GRAPH_CAP:
                self.outcomes[attempt] = placed
        if placed is None:
            return _BLOCKED
        # A request whose last unserved partner is placed can never be
        # served, and is given up.  Only the pair's partners can lose one;
        # the relation is symmetric, and a request given up is no unserved
        # request's partner, so one round suffices.
        unserved = dict(unserved)
        del unserved[pickup.id]
        del unserved[delivery.id]
        partners = self.partners
        for p in partners[pickup.id] + partners[delivery.id]:
            if p.id in unserved:
                for q in partners[p.id]:
                    if q.id in unserved:
                        break
                else:
                    del unserved[p.id]
        key = (closed, (placed.start_time, placed.request_ids))
        return self._reach(key, state.routes, placed, unserved)

    def _close(self, state):
        """Close the open route, if any; the construction goes on only if
        a route closed and a worker and an unserved request are left."""
        closed, route_key = state.key
        routes = state.routes
        key = (closed,)
        if state.current is not None:
            routes += (state.current,)
            closed += (route_key,)
            going_on = len(routes) < self.instance.parameters.worker_count and state.unserved
            key = (closed, None) if going_on else (closed,)
        return self._reach(key, routes, None, state.unserved)

    def _reach(self, key, routes, current, unserved):
        """The state of ``key``; a new one is held if the cap allows."""
        state = self.states.get(key)
        if state is None:
            state = _State(key, routes, current, unserved)
            finished = len(key) == 1
            self.ends += finished
            weight = 2 + len(routes) + 4 * len(unserved)
            if self.held + weight <= _GRAPH_CAP:
                self.states[key] = state
                self.held += weight
                self.open += 0 if finished else len(unserved)
            else:
                self.refused = True
        return state


def _construct(graph, choose):
    """One walk of ``graph`` from its root to a finished state.

    ``choose(left, state)`` picks the next request to place from ``left``,
    the candidates of ``state`` not blocked yet; everything after that
    choice - partner coupling, first-pair timing, cheapest-gap insertion -
    is the graph's ``step``.  A candidate that does not fit is blocked
    until the next placement; when all are, the route closes.  The walk is
    the same on any graph of the same instance, retained set and partners.
    Returns (routes, rejected) as lists, rejected holding the retained
    requests no route serves, in id order.
    """
    state = graph.root
    while len(state.key) == 2:
        left = list(state.unserved)
        while True:
            rid = choose(left, state) if left else None
            nxt = graph.step(state, rid)
            if nxt is not _BLOCKED:
                break
            left.remove(rid)
        state = nxt
    served = {rid for route in state.routes for rid in route.request_ids}
    return list(state.routes), [r for r in graph.retained if r.id not in served]


def _urgency_order(graph):
    """Picker of the most urgent candidate: lowest score, then lowest id."""
    partners, instance = graph.partners, graph.instance

    def pick(left, state):
        unserved = state.unserved
        return min((critical_factor(unserved[rid], [p for p in partners[rid] if p.id in unserved],
                                    instance), rid) for rid in left)[1]

    return pick


def _uniform_draw(seed):
    """Picker of a uniformly drawn candidate, from its own generator."""
    rng = random.Random(seed)
    return lambda left, state: left[rng.randrange(len(left))]


def _best_of_walks(instance, objective, pickers):
    """The best solution of the walks of one ``_Graph``, one per picker of
    ``pickers(graph)``, earlier walks keeping ties.

    Screens the partners and preprocesses once.  Only a walk that ends in
    a finished state not made before is scored: under the earliest-wins
    rule a repeat can never win.  With the profit objective, routes that
    do not pay for their worker are dropped before scoring.  Once every
    candidate of every held state has been tried and the cap refused no
    state, every later walk would repeat, and the loop stops.
    """
    check_objective(objective)
    partners = compatible_partners(instance)
    retained, _ = preprocess(instance, partners)
    graph = _Graph(instance, retained, partners)
    best = best_value = None
    for choose in pickers(graph):
        ends = graph.ends
        routes, _ = _construct(graph, choose)
        if graph.ends > ends:
            if objective == "profit":
                routes = paying_routes(routes, instance)
            solution = assemble_solution(routes, instance)
            value = objective_value(solution, objective)
            if best is None or value > best_value:
                best, best_value = solution, value
        if not graph.open and not graph.refused:
            break
    return best


def run_ch(instance, objective="profit"):
    """Urgency-first construction: ``_best_of_walks`` with one walk.

    Serves the hardest request first: the unserved request of lowest urgency
    score is coupled with its nearest compatible partner and inserted where
    it extends the open route least; requests that lose their last partner
    are given up.  With the profit objective, routes that do not pay for
    their worker are discarded at the end.
    """
    return _best_of_walks(instance, objective, lambda graph: [_urgency_order(graph)])


def run_rh(instance, config=None):
    """Randomized best-of-many construction: ``_best_of_walks`` with one
    walk per iteration.

    Each iteration replaces the urgency-driven choice of ``run_ch`` by a
    uniform draw over the placeable requests, from its own generator seeded
    from (seed, i) and made when the iteration starts, so a seed fixes the
    result.  The best solution under the configured objective wins, earlier
    iterations keeping ties.  A step taken before is followed, not
    evaluated again; once the graph is exhausted the loop stops with the
    same result, so ``config.iterations`` is an upper bound.
    """
    config = config or RhConfig()
    return _best_of_walks(instance, config.objective, lambda graph: (
        _uniform_draw(config.seed * 1_000_003 + i) for i in range(config.iterations)))
