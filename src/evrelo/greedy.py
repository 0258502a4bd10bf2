"""Single-route greedy construction.

Routes are grown a pickup->delivery pair at a time: from the current
position the worker rides by bike to the best feasible pickup under a
selection policy, then drives its EV to the best feasible delivery under the
same policy.  Two policies are provided: nearest next request, and most
urgent (earliest window closing).
"""

from __future__ import annotations

import enum
from typing import NamedTuple, Optional

from .errors import WrongKind
from .feasibility import propagate, replay_route, route_end, route_start
from .model import EPS, Request, RequestKind, assemble_solution, paying_routes


class GreedyPolicy(enum.Enum):
    """How the next request is chosen among the feasible candidates."""

    NEAREST = "nearest"
    MOST_URGENT = "most_urgent"


class Position(NamedTuple):
    """Where a growing route stands.

    ``location`` and ``departure`` are those of its last delivery (the depot
    and the start time before the first one); ``held`` is the pickup whose
    EV the worker has taken since, if any.
    """

    location: int
    departure: float
    start_time: float
    held: Optional[Request] = None


def opening_position(pickup, instance):
    """The depot position of a route whose first stop will be ``pickup``,
    reached exactly when its window opens."""
    start = route_start(instance, pickup, pickup.tw_min)
    return Position(0, start, start)


def pickup_feasible(position, pickup, candidate_deliveries, instance):
    """Can the worker take on ``pickup`` next?

    Two checks: the pickup is reached before its window closes, and there
    remains enough duty time to serve it, drop the EV at the cheapest
    candidate delivery and ride back to the depot.  ``candidate_deliveries``
    must hold the unserved deliveries this pickup could be paired with; when
    it is empty the pickup would strand the worker with an EV, so the answer
    is no.  Raises WrongKind if ``pickup`` is not a pickup or an EV is held.
    """
    if pickup.kind is not RequestKind.PICKUP:
        raise WrongKind(f"request {pickup.id} is not a pickup")
    if position.held is not None:
        raise WrongKind("cannot ride to a pickup while holding an EV")
    par = instance.parameters
    dist = instance.distances
    arrival = position.departure + dist[position.location][pickup.location] * 60.0 / par.bike_speed
    if not arrival <= pickup.tw_max + EPS:
        return False
    if not candidate_deliveries:
        return False
    best_tail = min(
        dist[pickup.location][d.location] * 60.0 / par.ev_speed
        + dist[d.location][0] * 60.0 / par.bike_speed
        for d in candidate_deliveries
    )
    service_start = max(arrival, pickup.tw_min)
    finish = service_start + par.load_time + best_tail + par.park_time
    return finish - position.start_time <= par.duty_time + EPS


def delivery_feasible(position, delivery, instance):
    """Can the held EV be dropped at ``delivery``?

    The held pickup and the delivery are propagated from the position: the
    delivery window and both battery conditions must hold, and so must the
    duty time with the ride home booked from ``max(arrival, tw_min) +
    park_time``.  The replay leaves at ``max(arrival + park_time,
    tw_min)``, so when the EV arrives before the window opens the screen
    over-counts by up to ``park_time`` and can reject a delivery that fits
    (ROADMAP item 2).  Raises WrongKind if ``delivery`` is not a delivery
    or no EV is held.
    """
    if delivery.kind is not RequestKind.DELIVERY:
        raise WrongKind(f"request {delivery.id} is not a delivery")
    if position.held is None:
        raise WrongKind("no EV in hand: delivery_feasible needs a held pickup")
    stops, _, failures = propagate(
        instance, position.departure, position.location, (position.held, delivery)
    )
    if failures:
        return False
    dep = max(stops[1][0], delivery.tw_min) + instance.parameters.park_time
    return route_end(instance, position.start_time, dep, delivery)[1]


def select_next(position, candidates, policy, instance, delivery_pool=()):
    """Best feasible next request from ``candidates`` under ``policy``.

    With ``position`` None the route is still empty and each pickup is
    judged from its own window-opening departure; otherwise the candidates
    are checked against the current position, and deliveries only while an
    EV is held.  ``delivery_pool`` is the set of deliveries still open,
    needed to judge whether a pickup can lead anywhere.  Returns None when
    nothing is feasible.  Ties (equal distance or equal window closing)
    break toward the lowest request id.
    """
    if position is None:
        origin = 0
    else:
        origin = position.location if position.held is None else position.held.location
    best = None
    best_key = None
    for request in candidates:
        if request.kind is RequestKind.PICKUP:
            at = opening_position(request, instance) if position is None else position
            if not pickup_feasible(at, request, delivery_pool, instance):
                continue
        elif position is None or position.held is None or not delivery_feasible(position, request, instance):
            continue
        if policy is GreedyPolicy.NEAREST:
            key = (instance.distances[origin][request.location], request.id)
        else:
            key = (request.tw_max, request.id)
        if best_key is None or key < best_key:
            best, best_key = request, key
    return best


def run_greedy(instance, policy=GreedyPolicy.NEAREST, drop_unprofitable=False):
    """Grow routes one by one until the workers run out or nothing fits.

    A route is a chain of pickup->delivery pairs: each step picks a pickup
    by the policy, then the delivery its EV is dropped at.  A pickup whose
    EV cannot be dropped anywhere is barred from the current route (it
    stays available for later routes).  With ``drop_unprofitable`` routes
    that do not pay for their worker are discarded from the final solution.
    """
    unserved = {r.id: r for r in instance.requests}
    routes = []
    while len(routes) < instance.parameters.worker_count:
        barred = set()
        order = []
        position = None
        while True:
            deliveries = [r for r in unserved.values() if r.kind is RequestKind.DELIVERY]
            pickups = [r for r in unserved.values()
                       if r.kind is RequestKind.PICKUP and r.id not in barred]
            pickup = select_next(position, pickups, policy, instance, deliveries)
            if pickup is None:
                break
            at = opening_position(pickup, instance) if position is None else position
            delivery = select_next(at._replace(held=pickup), deliveries, policy, instance)
            if delivery is None:
                barred.add(pickup.id)
                continue
            _, departure, _ = propagate(instance, at.departure, at.location, (pickup, delivery))
            position = Position(delivery.location, departure, at.start_time)
            order += (pickup, delivery)
            del unserved[pickup.id], unserved[delivery.id]
        if not order:
            break
        routes.append(replay_route(instance, position.start_time, order))
    if drop_unprofitable:
        routes = paying_routes(routes, instance)
    return assemble_solution(routes, instance)
