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

This recurrence is written once, in ``propagate``; the replay, the
validator, insertion simulation, the exact solver's departure scan and the
greedy delivery screen all call it.  A route's two ends are written once
too: ``route_start`` is the depot departure that reaches the first pickup
at a given time, and ``route_end`` adds the ride home to the last departure
and judges the duty time.  ``validate_route`` replays a stored route with
them and is the single source of feasibility truth in the package: every
solver accepts a route only if the validator would.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from .errors import WrongKind
from .model import EPS, RequestKind, RouteSchedule, ScheduledVisit

__all__ = [
    "ValidationResult",
    "Violation",
    "propagate",
    "replay_route",
    "route_end",
    "route_start",
    "schedule_route",
    "validate_route",
    "validate_solution",
]


def propagate(instance, dep, loc, requests, *, verdict_only=False):
    """Walk an alternating pickup, delivery, ... order forward from leaving
    matrix location ``loc`` at time ``dep``.

    Returns (stops, dep, failures): one (arrival, waiting, charge) tuple per
    stop, charge being the EV's level when driven off a pickup and None at
    a delivery; the departure from the last stop; and the failed
    conditions as (code, index into ``requests``) in visit order, with
    code one of ``pickup_window``, ``delivery_window``, ``battery_range``
    (the charge cannot cover the leg) and ``battery_target`` (the delivery's
    level is unreachable by its window closing).  The two battery codes are
    judged independently.  Every comparison fails closed, so a NaN never
    passes.  The order is not checked here; ``schedule_route`` does.

    With ``verdict_only`` the walk stops at the first failed condition:
    ``failures`` then holds only that one, the full call's first, and the
    stops and the departure may be partial.  It fails exactly when the
    full call fails.
    """
    par = instance.parameters
    dist = instance.distances
    bike, ev = par.bike_speed, par.ev_speed
    park, load = par.park_time, par.load_time
    recharge, full_range = par.recharge_time, par.full_range
    stops = []
    failures = []
    visit = 0
    pairs = iter(requests)
    # The hottest loop of every solver: max()/min() are spelt out as
    # comparisons (same results, NaN included) and fields read once.
    for pickup, delivery in zip(pairs, pairs):
        p_loc, d_loc = pickup.location, delivery.location
        opening, closing = pickup.tw_min, delivery.tw_max
        arrival = dep + dist[loc][p_loc] * 60.0 / bike
        if not arrival <= pickup.tw_max + EPS:
            failures.append(("pickup_window", visit))
            if verdict_only:
                break
        wait = opening - arrival
        if not wait > 0.0:
            wait = 0.0
        start = arrival + wait
        charge = pickup.battery + (start - opening) / recharge
        if charge > 1.0:
            charge = 1.0
        leg = dist[p_loc][d_loc]
        d_arrival = start + load + leg * 60.0 / ev
        d_wait = delivery.tw_min - d_arrival - park
        if not d_wait > 0.0:
            d_wait = 0.0
        stops.append((arrival, wait, charge))
        stops.append((d_arrival, d_wait, None))
        visit += 1
        if not d_arrival <= closing + EPS:
            failures.append(("delivery_window", visit))
        left = charge - leg / full_range
        if not left >= -EPS:
            failures.append(("battery_range", visit))
        if not left + (closing - d_arrival) / recharge >= delivery.battery - EPS:
            failures.append(("battery_target", visit))
        if verdict_only and failures:
            del failures[1:]
            break
        dep = d_arrival + d_wait + park
        loc = d_loc
        visit += 1
    return stops, dep, failures


def route_start(instance, pickup, arrival):
    """Depot departure that lands the worker on ``pickup`` at ``arrival``."""
    return arrival - instance.distances[0][pickup.location] * 60.0 / instance.parameters.bike_speed


def route_end(instance, start_time, dep, last):
    """(end_time, fits) of a route that left the depot at ``start_time`` and
    leaves its ``last`` stop at ``dep``: the return to the depot, and whether
    the route fits into the duty time.  Fails closed on NaN."""
    par = instance.parameters
    end_time = dep + instance.distances[last.location][0] * 60.0 / par.bike_speed
    return end_time, end_time - start_time <= par.duty_time + EPS


def schedule_route(instance, start_time, ordered_requests):
    """The stored route for a visit order, with the conditions it fails.

    Returns (route, failures): the route holds exactly the values the
    validator will recompute (and worker 0: ``assemble_solution`` numbers
    the workers), and ``failures`` lists ``propagate``'s failed
    conditions followed by ("duty", None) when the route outlasts the duty
    time.  Raises WrongKind if the order does not alternate pickup,
    delivery, ..., delivery.
    """
    reqs = tuple(ordered_requests)
    if (not reqs or len(reqs) % 2
            or any(r.kind is not RequestKind.PICKUP for r in reqs[::2])
            or any(r.kind is not RequestKind.DELIVERY for r in reqs[1::2])):
        raise WrongKind("a route must alternate pickup, delivery, ..., delivery")
    stops, dep, failures = propagate(instance, start_time, 0, reqs)
    end_time, fits = route_end(instance, start_time, dep, reqs[-1])
    if not fits:
        failures.append(("duty", None))
    visits = tuple(ScheduledVisit(r.id, *stop) for r, stop in zip(reqs, stops))
    route = RouteSchedule(worker=0, start_time=start_time, visits=visits, end_time=end_time)
    return route, failures


def replay_route(instance, start_time, ordered_requests):
    """Build the canonical schedule for a visit order.

    Raises WrongKind if the order does not alternate pickup, delivery, ...,
    delivery.  The returned route stores exactly the values the validator
    will recompute.
    """
    return schedule_route(instance, start_time, ordered_requests)[0]


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
    number is detected.  On top of the replay the validator reports, per
    visit, the pickup and delivery windows and the battery conditions (a
    charge target only where the range is covered), and, per route, the
    duty time.  Every comparison fails closed, so a NaN or an infinity
    never passes.

    The forward-looking construction screens (enough duty time left assuming
    the cheapest continuation) are deliberately not re-checked here: a
    finished route proves or disproves the duty bound by itself, and the
    cheapest-continuation estimate can be beaten by fast EV legs.
    """
    problems, reqs = _structural_check(route, instance)
    if reqs is None:
        return ValidationResult(tuple(problems))

    par = instance.parameters
    replayed, failures = schedule_route(instance, route.start_time, reqs)
    windows = {visit: code for code, visit in failures if code.endswith("_window")}

    for idx, (req, stored, fresh) in enumerate(zip(reqs, route.visits, replayed.visits)):
        if not abs(stored.arrival - fresh.arrival) <= EPS:
            problems.append(
                Violation("stored_schedule", f"arrival {stored.arrival} vs replay {fresh.arrival}", visit=idx)
            )
        if not abs(stored.waiting - fresh.waiting) <= EPS:
            problems.append(
                Violation("stored_schedule", f"waiting {stored.waiting} vs replay {fresh.waiting}", visit=idx)
            )
        if fresh.ev_charge is not None and (
            stored.ev_charge is None or not abs(stored.ev_charge - fresh.ev_charge) <= EPS
        ):
            problems.append(
                Violation(
                    "stored_schedule",
                    f"charge {stored.ev_charge} vs replay {fresh.ev_charge}",
                    visit=idx,
                )
            )
        if idx in windows:
            problems.append(
                Violation(windows[idx], f"arrival {fresh.arrival} after {req.tw_max}", visit=idx)
            )

    uncovered = set()
    for code, visit in failures:
        if code == "battery_range":
            uncovered.add(visit)
            charge = replayed.visits[visit - 1].ev_charge
            spent = instance.distances[reqs[visit - 1].location][reqs[visit].location] / par.full_range
            problems.append(
                Violation(code, f"charge {charge:.4f} cannot cover {spent:.4f}", visit=visit)
            )
        elif code == "battery_target" and visit not in uncovered:
            delivery = reqs[visit]
            problems.append(
                Violation(
                    code,
                    f"target {delivery.battery:.4f} unreachable by {delivery.tw_max}",
                    visit=visit,
                )
            )

    if not abs(route.end_time - replayed.end_time) <= EPS:
        problems.append(
            Violation("end_time", f"stored {route.end_time} vs replay {replayed.end_time}")
        )
    if ("duty", None) in failures:
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
        if not abs(revenue - solution.total_revenue) <= EPS:
            problems.append(
                Violation("accounting", f"revenue {solution.total_revenue} should be {revenue}")
            )
        if not abs(cost - solution.worker_cost) <= EPS:
            problems.append(
                Violation("accounting", f"worker cost {solution.worker_cost} should be {cost}")
            )
        if not abs(revenue - cost - solution.profit) <= EPS:
            problems.append(
                Violation("accounting", f"profit {solution.profit} should be {revenue - cost}")
            )
    return ValidationResult(tuple(problems))
