"""Schedule propagation and feasibility checking.

The schedule of a route is fully determined by its depot departure time and
the visit order.  Walking the visits forward:

* arrival at a pickup = departure from the previous stop + riding time;
  the worker waits there until the window opens, then spends the load time
  stowing the bike before driving off;
* arrival at a delivery = departure from the pickup + driving time; parking
  the EV and unfolding the bike may overlap with waiting for the window, so
  service can begin ``park_time`` minutes before the window opens;
* the EV charges while parked at the pickup station (from the window opening
  until the worker drives away) and consumes charge in proportion to the
  driven distance.

``validate_route`` replays a stored route with exactly these rules and is the
single source of feasibility truth in the package: every solver accepts a
route only if the validator does.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from .errors import WrongKind
from .model import EPS, RequestKind, RouteSchedule, ScheduledVisit

__all__ = [
    "ScheduleState",
    "ValidationResult",
    "Violation",
    "arrival_at_delivery",
    "arrival_at_pickup",
    "delivery_feasible",
    "initial_state",
    "opening_state",
    "pickup_feasible",
    "replay_route",
    "route_start_for_pickup",
    "validate_route",
    "validate_solution",
    "waiting_time",
]


@dataclass(frozen=True)
class ScheduleState:
    """Where a worker stands while a route is being built.

    ``ready_time`` is the earliest moment the worker can leave ``location``:
    after a delivery it includes waiting and parking the EV, after a pickup it
    includes waiting and stowing the bike.  ``carried_charge`` is the charge
    of the EV the worker is driving, set between a pickup and the following
    delivery and None otherwise.
    """

    location: int
    ready_time: float
    start_time: float
    last_kind: Optional[RequestKind] = None
    carried_charge: Optional[float] = None


def initial_state(start_time):
    """A worker standing at the depot, ready to leave at ``start_time``."""
    return ScheduleState(location=0, ready_time=start_time, start_time=start_time)


def route_start_for_pickup(pickup, instance):
    """Depot departure that lands the worker on ``pickup`` exactly when its
    window opens (no waiting at the first stop)."""
    return pickup.tw_min - instance.bike_minutes(0, pickup.location)


def opening_state(pickup, instance):
    """Initial state for a route whose first stop will be ``pickup``."""
    return initial_state(route_start_for_pickup(pickup, instance))


def arrival_at_pickup(state, pickup, instance):
    """Arrival time at a pickup reached by bike from the current state."""
    if pickup.kind is not RequestKind.PICKUP:
        raise WrongKind(f"request {pickup.id} is not a pickup")
    if state.last_kind is RequestKind.PICKUP:
        raise WrongKind("cannot ride to a pickup while holding an EV")
    return state.ready_time + instance.bike_minutes(state.location, pickup.location)


def arrival_at_delivery(state, delivery, instance):
    """Arrival time at a delivery reached by EV from the pickup state."""
    if delivery.kind is not RequestKind.DELIVERY:
        raise WrongKind(f"request {delivery.id} is not a delivery")
    if state.last_kind is not RequestKind.PICKUP:
        raise WrongKind("a delivery must follow a pickup")
    return state.ready_time + instance.ev_minutes(state.location, delivery.location)


def waiting_time(request, arrival, park_time):
    """Waiting incurred at a stop reached at ``arrival``.

    At a delivery, parking the EV overlaps with waiting for the window, so the
    worker only idles until ``tw_min - park_time``; at a pickup the window
    must open before anything can happen.
    """
    if request.kind is RequestKind.PICKUP:
        return max(0.0, request.tw_min - arrival)
    return max(0.0, request.tw_min - arrival - park_time)


def charge_at_departure(pickup, service_start, parameters):
    """Charge of the EV when the worker drives it off its pickup station.

    The EV has ``pickup.battery`` at the window opening and gains charge for
    every minute parked after that, capped at a full battery.
    """
    gained = (service_start - pickup.tw_min) / parameters.recharge_time
    return min(pickup.battery + gained, 1.0)


def after_pickup(state, pickup, instance):
    """Advance the state over ``pickup``; returns (new_state, visit)."""
    par = instance.parameters
    arrival = arrival_at_pickup(state, pickup, instance)
    wait = waiting_time(pickup, arrival, par.park_time)
    service_start = arrival + wait
    charge = charge_at_departure(pickup, service_start, par)
    visit = ScheduledVisit(pickup.id, arrival, wait, charge)
    new_state = ScheduleState(
        location=pickup.location,
        ready_time=service_start + par.load_time,
        start_time=state.start_time,
        last_kind=RequestKind.PICKUP,
        carried_charge=charge,
    )
    return new_state, visit


def after_delivery(state, delivery, instance):
    """Advance the state over ``delivery``; returns (new_state, visit)."""
    par = instance.parameters
    arrival = arrival_at_delivery(state, delivery, instance)
    wait = waiting_time(delivery, arrival, par.park_time)
    visit = ScheduledVisit(delivery.id, arrival, wait)
    new_state = ScheduleState(
        location=delivery.location,
        ready_time=arrival + wait + par.park_time,
        start_time=state.start_time,
        last_kind=RequestKind.DELIVERY,
        carried_charge=None,
    )
    return new_state, visit


# ---------------------------------------------------------------------------
# Per-request feasibility screens used while a route is under construction.
# ---------------------------------------------------------------------------

def pickup_feasible(state, pickup, candidate_deliveries, instance):
    """Can the worker take on ``pickup`` next?

    Two checks: the pickup is reached before its window closes, and there
    remains enough duty time to serve it, drop the EV at the cheapest
    candidate delivery and ride back to the depot.  ``candidate_deliveries``
    must hold the unserved deliveries this pickup could be paired with; when
    it is empty the pickup would strand the worker with an EV, so the answer
    is no.
    """
    arrival = arrival_at_pickup(state, pickup, instance)
    if arrival > pickup.tw_max + EPS:
        return False
    if not candidate_deliveries:
        return False
    par = instance.parameters
    best_tail = min(
        instance.ev_minutes(pickup.location, d.location)
        + instance.bike_minutes(d.location, 0)
        for d in candidate_deliveries
    )
    service_start = max(arrival, pickup.tw_min)
    finish = service_start + par.load_time + best_tail + par.park_time
    return finish - state.start_time <= par.duty_time + EPS


def delivery_feasible(state, delivery, instance):
    """Can the EV picked up last be dropped at ``delivery``?

    Checks the delivery window, the duty time were the worker to head home
    right after, that the carried charge covers the driven distance, and that
    the battery can reach the level the delivery station demands before its
    window closes (charging resumes once the EV is parked).
    """
    if state.carried_charge is None:
        raise WrongKind("no EV in hand: delivery_feasible needs a post-pickup state")
    par = instance.parameters
    arrival = arrival_at_delivery(state, delivery, instance)
    if arrival > delivery.tw_max + EPS:
        return False
    home = max(arrival, delivery.tw_min) + par.park_time + instance.bike_minutes(delivery.location, 0)
    if home - state.start_time > par.duty_time + EPS:
        return False
    spent = instance.distance(state.location, delivery.location) / par.full_range
    remaining = state.carried_charge - spent
    if remaining < -EPS:
        return False
    recharge_slack = (delivery.tw_max - arrival) / par.recharge_time
    return remaining + recharge_slack >= delivery.battery - EPS


# ---------------------------------------------------------------------------
# Replay and validation.
# ---------------------------------------------------------------------------

def replay_route(instance, start_time, ordered_requests, worker=0):
    """Build the canonical schedule for a visit order.

    Raises WrongKind if the order does not alternate pickup, delivery, ...,
    delivery.  The returned route stores exactly the values the validator
    will recompute.
    """
    reqs = list(ordered_requests)
    if not reqs or len(reqs) % 2 != 0:
        raise WrongKind("a route must hold one or more complete pickup/delivery pairs")
    state = initial_state(start_time)
    visits = []
    for position, req in enumerate(reqs):
        if position % 2 == 0:
            state, visit = after_pickup(state, req, instance)
        else:
            state, visit = after_delivery(state, req, instance)
        visits.append(visit)
    end_time = state.ready_time + instance.bike_minutes(state.location, 0)
    return RouteSchedule(worker=worker, start_time=start_time, visits=tuple(visits), end_time=end_time)


@dataclass(frozen=True)
class Violation:
    """One broken feasibility condition.

    ``code`` names the condition; ``route`` and ``visit`` locate it when it is
    tied to a route or a particular stop.
    """

    code: str
    detail: str = ""
    route: Optional[int] = None
    visit: Optional[int] = None

    def __str__(self):
        where = []
        if self.route is not None:
            where.append(f"route {self.route}")
        if self.visit is not None:
            where.append(f"visit {self.visit}")
        prefix = f"[{', '.join(where)}] " if where else ""
        return f"{prefix}{self.code}: {self.detail}" if self.detail else f"{prefix}{self.code}"


@dataclass(frozen=True)
class ValidationResult:
    violations: tuple

    def __post_init__(self):
        object.__setattr__(self, "violations", tuple(self.violations))

    @property
    def ok(self):
        return not self.violations

    @property
    def first(self):
        return self.violations[0] if self.violations else None

    def describe(self):
        if self.ok:
            return "OK"
        return "\n".join(str(v) for v in self.violations)


def _structural_check(route, instance):
    """Alternation / id checks that must hold before any replay makes sense."""
    problems = []
    visits = route.visits
    if not visits or len(visits) % 2 != 0:
        problems.append(Violation("alternation", "route must hold complete pickup/delivery pairs"))
        return problems, None
    reqs = []
    seen = set()
    for idx, visit in enumerate(visits):
        try:
            req = instance.request(visit.request_id)
        except Exception:
            problems.append(Violation("unknown_request", f"id {visit.request_id}", visit=idx))
            return problems, None
        expected = RequestKind.PICKUP if idx % 2 == 0 else RequestKind.DELIVERY
        if req.kind is not expected:
            problems.append(
                Violation("alternation", f"visit {idx} should be a {expected.value}", visit=idx)
            )
            return problems, None
        if req.id in seen:
            problems.append(Violation("duplicate_visit", f"id {req.id}", visit=idx))
            return problems, None
        seen.add(req.id)
        reqs.append(req)
    return problems, reqs


def validate_route(route, instance):
    """Replay a stored route and report every violated condition.

    The replay recomputes arrival, waiting and charge values from the start
    time and compares them with the stored ones; disagreement beyond the
    package tolerance is itself a violation, so tampering with any stored
    number is detected.  On top of the replay the validator checks, per
    visit, the pickup and delivery windows and both battery conditions, and,
    per route, the duty time.

    The forward-looking construction screens (enough duty time left assuming
    the cheapest continuation) are deliberately not re-checked here: a
    finished route proves or disproves the duty bound by itself, and the
    cheapest-continuation estimate can be beaten by fast EV legs.
    """
    problems, reqs = _structural_check(route, instance)
    if reqs is None:
        return ValidationResult(tuple(problems))

    par = instance.parameters
    state = initial_state(route.start_time)
    replayed = replay_route(instance, route.start_time, reqs, worker=route.worker)

    for idx, (req, stored, fresh) in enumerate(zip(reqs, route.visits, replayed.visits)):
        if abs(stored.arrival - fresh.arrival) > EPS:
            problems.append(
                Violation("stored_schedule", f"arrival {stored.arrival} vs replay {fresh.arrival}", visit=idx)
            )
        if abs(stored.waiting - fresh.waiting) > EPS:
            problems.append(
                Violation("stored_schedule", f"waiting {stored.waiting} vs replay {fresh.waiting}", visit=idx)
            )
        if req.kind is RequestKind.PICKUP:
            if (stored.ev_charge is None) or abs(stored.ev_charge - (fresh.ev_charge or 0.0)) > EPS:
                problems.append(
                    Violation(
                        "stored_schedule",
                        f"charge {stored.ev_charge} vs replay {fresh.ev_charge}",
                        visit=idx,
                    )
                )
            if fresh.arrival > req.tw_max + EPS:
                problems.append(
                    Violation("pickup_window", f"arrival {fresh.arrival} after {req.tw_max}", visit=idx)
                )
        else:
            if fresh.arrival > req.tw_max + EPS:
                problems.append(
                    Violation("delivery_window", f"arrival {fresh.arrival} after {req.tw_max}", visit=idx)
                )

    # Battery conditions per pair, from replayed values.
    for pair_idx in range(len(reqs) // 2):
        pickup = reqs[2 * pair_idx]
        delivery = reqs[2 * pair_idx + 1]
        charge = replayed.visits[2 * pair_idx].ev_charge
        spent = instance.distance(pickup.location, delivery.location) / par.full_range
        arrival_d = replayed.visits[2 * pair_idx + 1].arrival
        if charge - spent < -EPS:
            problems.append(
                Violation(
                    "battery_range",
                    f"charge {charge:.4f} cannot cover {spent:.4f}",
                    visit=2 * pair_idx + 1,
                )
            )
        elif charge - spent + (delivery.tw_max - arrival_d) / par.recharge_time < delivery.battery - EPS:
            problems.append(
                Violation(
                    "battery_target",
                    f"target {delivery.battery:.4f} unreachable by {delivery.tw_max}",
                    visit=2 * pair_idx + 1,
                )
            )

    if abs(route.end_time - replayed.end_time) > EPS:
        problems.append(
            Violation("end_time", f"stored {route.end_time} vs replay {replayed.end_time}")
        )
    if replayed.end_time - route.start_time > par.duty_time + EPS:
        problems.append(
            Violation(
                "duty",
                f"duration {replayed.end_time - route.start_time:.4f} exceeds {par.duty_time}",
            )
        )
    return ValidationResult(tuple(problems))


def validate_solution(solution, instance):
    """Validate every route plus the solution-level bookkeeping."""
    problems = []
    par = instance.parameters
    seen = {}
    for ridx, route in enumerate(solution.routes):
        result = validate_route(route, instance)
        for v in result.violations:
            problems.append(Violation(v.code, v.detail, route=ridx, visit=v.visit))
        for visit in route.visits:
            if visit.request_id in seen:
                problems.append(
                    Violation(
                        "duplicate_service",
                        f"request {visit.request_id} in routes {seen[visit.request_id]} and {ridx}",
                        route=ridx,
                    )
                )
            else:
                seen[visit.request_id] = ridx

    if len(solution.routes) > par.worker_count:
        problems.append(
            Violation("worker_limit", f"{len(solution.routes)} routes for {par.worker_count} workers")
        )

    if solution.served != set(seen):
        problems.append(Violation("served_set", "served ids disagree with route visits"))
    if solution.served & solution.rejected:
        problems.append(Violation("served_set", "a request is both served and rejected"))
    all_ids = {r.id for r in instance.requests}
    if solution.served | solution.rejected != all_ids:
        problems.append(Violation("served_set", "served and rejected do not cover the instance"))

    unknown = [rid for rid in solution.served if rid not in all_ids]
    if unknown:
        problems.append(Violation("unknown_request", f"ids {sorted(unknown)}"))
    else:
        revenue = sum(instance.request(rid).revenue for rid in solution.served)
        cost = par.worker_cost * len(solution.routes)
        if abs(revenue - solution.total_revenue) > EPS:
            problems.append(
                Violation("accounting", f"revenue {solution.total_revenue} should be {revenue}")
            )
        if abs(cost - solution.worker_cost) > EPS:
            problems.append(
                Violation("accounting", f"worker cost {solution.worker_cost} should be {cost}")
            )
        if abs(revenue - cost - solution.profit) > EPS:
            problems.append(
                Violation("accounting", f"profit {solution.profit} should be {revenue - cost}")
            )
    return ValidationResult(tuple(problems))
