"""Problem data model: parameters, requests, instances, routes and solutions,
the rules an instance keeps and the objectives a solve maximises.

Conventions used throughout the package:

* times are minutes, distances kilometres, speeds km/h;
* battery levels are fractions of a full charge in [0, 1];
* the depot occupies row/column 0 of the distance matrix and every request
  location is an index into that same matrix;
* a worker route alternates pickup and delivery visits, starts and ends at
  the depot, and may not last longer than the duty time.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass, field, fields
from functools import cached_property
from typing import Optional

from .errors import IndexOutOfRange, InvalidInstance, UnknownRequest

#: Tolerance, in minutes (or charge fraction), absorbed by all feasibility
#: comparisons so that chained floating-point schedule propagation never flips
#: a verdict on numerical noise.
EPS = 1e-6


class RequestKind(enum.Enum):
    PICKUP = "pickup"
    DELIVERY = "delivery"


# ---------------------------------------------------------------------------
# Instance rules.  The constructors below raise on the first broken rule;
# ``io.load_instance`` reports every one at once.
# ---------------------------------------------------------------------------

def parameter_violations(p):
    """Every broken rule of a parameter set, as messages; ``p`` has the
    ``Parameters`` fields as attributes."""
    values = {f.name: getattr(p, f.name) for f in fields(Parameters)}
    # A NaN fails every comparison, so it would pass each later check.
    bad = [f"parameters.{name} must be finite, got {value}"
           for name, value in values.items() if not math.isfinite(value)]
    bad += [f"parameters.{name} must be strictly positive, got {values[name]}"
            for name in ("duty_time", "ev_speed", "bike_speed", "full_range", "recharge_time")
            if values[name] <= 0]
    # Handling times may be zero (instant swap), never negative.
    bad += [f"parameters.{name} must be non-negative, got {values[name]}"
            for name in ("park_time", "load_time", "worker_cost") if values[name] < 0]
    if values["worker_count"] < 1:
        bad.append(f"parameters.worker_count must be at least 1, got {values['worker_count']}")
    return bad


def request_violations(r):
    """Every broken rule of one request's own fields, as messages; ``r`` has
    the ``Request`` fields as attributes."""
    bad = [f"{name} must be finite, got {getattr(r, name)}"
           for name in ("tw_min", "tw_max", "battery", "revenue")
           if not math.isfinite(getattr(r, name))]
    if r.tw_min > r.tw_max:
        bad.append(f"tw_min {r.tw_min} exceeds tw_max {r.tw_max}")
    if not 0.0 <= r.battery <= 1.0:
        bad.append(f"battery {r.battery} outside [0, 1]")
    if r.revenue < 0:
        bad.append("negative revenue")
    return [f"request {r.id}: {message}" for message in bad]


def matrix_shape_violations(distances):
    """A message for every row of ``distances`` that breaks squareness."""
    n = len(distances)
    return [f"distances row {i} has {len(row)} entries, expected {n}"
            for i, row in enumerate(distances) if len(row) != n]


def request_set_violations(requests, n):
    """Every broken rule of a request set on an ``n``-location matrix, as
    (error type, message) pairs, request by request: a repeated id, the
    request's own fields (except for a ``Request``, which checked them when
    it was built), a location outside 1..n-1 (row 0 is the depot)."""
    bad = []
    seen = set()
    for r in requests:
        if r.id in seen:
            bad.append((InvalidInstance, f"request {r.id}: duplicate id"))
        seen.add(r.id)
        if not isinstance(r, Request):
            bad += [(ValueError, message) for message in request_violations(r)]
        if not 1 <= r.location < n:
            bad.append((IndexOutOfRange,
                        f"request {r.id}: location {r.location} outside the distance matrix"))
    return bad


def revenue_model_violations(m):
    """Every broken rule of a revenue model, as messages; ``m`` has the
    ``RevenueModel`` fields as attributes."""
    bad = []
    if m.kind not in ("flat", "vrc_frc"):
        bad.append(f"revenue_model.kind must be one of flat, vrc_frc, got {m.kind!r}")
    bad += [f"revenue_model.{name} must be finite, got {getattr(m, name)}"
            for name in ("amount", "rate_per_min", "rent_min", "rent_max", "frc")
            if not math.isfinite(getattr(m, name))]
    if m.rent_min > m.rent_max:
        bad.append(f"revenue_model.rent_min {m.rent_min} exceeds rent_max {m.rent_max}")
    return bad


@dataclass(frozen=True)
class Parameters:
    """Worker and fleet constants.

    duty_time      -- maximum route duration per worker, minutes
    ev_speed       -- driving speed when relocating an EV, km/h
    bike_speed     -- riding speed on the folding bike, km/h
    park_time      -- minutes to park the EV and unfold the bike at a delivery
    load_time      -- minutes to stow the bike and start the EV at a pickup
    full_range     -- kilometres an EV covers on a full charge
    recharge_time  -- minutes a docked EV needs to charge from empty to full
    worker_count   -- number of workers available
    worker_cost    -- fixed cost charged per non-empty route, euros
    """

    duty_time: float = 300.0
    ev_speed: float = 25.0
    bike_speed: float = 15.0
    park_time: float = 1.0
    load_time: float = 1.0
    full_range: float = 150.0
    recharge_time: float = 240.0
    worker_count: int = 10
    worker_cost: float = 60.0

    def __post_init__(self):
        for message in parameter_violations(self):
            raise ValueError(message)


@dataclass(frozen=True)
class Request:
    """One relocation request.

    A pickup is an EV stranded at a full station; ``battery`` is its charge
    level at the moment the time window opens (it keeps charging while parked).
    A delivery is a station short of EVs; ``battery`` is the minimum charge the
    delivered EV must reach by the closing time of the window.
    """

    id: int
    kind: RequestKind
    location: int
    tw_min: float
    tw_max: float
    battery: float
    revenue: float

    def __post_init__(self):
        for message in request_violations(self):
            raise ValueError(message)


@dataclass(frozen=True)
class RevenueModel:
    """How request revenues are priced.

    kind "flat": every request earns ``amount``.
    kind "vrc_frc": a variable component (rate_per_min times a rent time drawn
    uniformly from [rent_min, rent_max]) plus the fixed component ``frc``.
    """

    kind: str = "flat"
    amount: float = 20.0
    rate_per_min: float = 0.29
    rent_min: float = 5.0
    rent_max: float = 15.0
    frc: float = 15.0

    def __post_init__(self):
        for message in revenue_model_violations(self):
            raise ValueError(message)

    def draw(self, rng):
        """Draw one request revenue using ``rng.uniform``."""
        if self.kind == "flat":
            return self.amount
        rent = float(rng.uniform(self.rent_min, self.rent_max))
        return self.rate_per_min * rent + self.frc


@dataclass(frozen=True)
class Instance:
    """An immutable problem instance, safe to share between solver runs.

    The matrix must be square, request ids unique and every request location
    a non-depot row of the matrix, so solver hot paths may index
    ``distances`` directly and ``request`` names one request.
    """

    parameters: Parameters
    requests: tuple
    distances: tuple
    revenue_model: Optional[RevenueModel] = None
    provenance: Optional[dict] = field(default=None, compare=True)

    def __post_init__(self):
        object.__setattr__(self, "requests", tuple(self.requests))
        object.__setattr__(self, "distances", tuple(tuple(row) for row in self.distances))
        for message in matrix_shape_violations(self.distances):
            raise InvalidInstance(message)
        for error, message in request_set_violations(self.requests, len(self.distances)):
            raise error(message)

    # -- lookups ----------------------------------------------------------

    @cached_property
    def requests_by_id(self):
        """Request id -> Request.  Unchecked: a missing id is a KeyError;
        ``request`` is the checked lookup."""
        return {r.id: r for r in self.requests}

    def request(self, request_id):
        try:
            return self.requests_by_id[request_id]
        except KeyError:
            raise UnknownRequest(f"no request with id {request_id}") from None

    @cached_property
    def pickups(self):
        return tuple(r for r in self.requests if r.kind is RequestKind.PICKUP)

    @cached_property
    def deliveries(self):
        return tuple(r for r in self.requests if r.kind is RequestKind.DELIVERY)

    def distance(self, origin, destination):
        n = len(self.distances)
        if not (0 <= origin < n and 0 <= destination < n):
            raise IndexOutOfRange(
                f"location pair ({origin}, {destination}) outside matrix of size {n}"
            )
        return self.distances[origin][destination]


@dataclass(frozen=True)
class ScheduledVisit:
    """One stop of a route as stored in a solution.

    ``arrival`` and ``waiting`` are the worker's arrival time and the waiting
    incurred at the stop.  ``ev_charge`` is recorded at pickups only: the
    charge level of the EV at the moment the worker drives it away (parking
    time since the window opened counts as recharge).
    """

    request_id: int
    arrival: float
    waiting: float
    ev_charge: Optional[float] = None


@dataclass(frozen=True)
class RouteSchedule:
    """A fully timed worker route: depot -> p1 d1 ... pn dn -> depot."""

    worker: int
    start_time: float
    visits: tuple
    end_time: float

    def __post_init__(self):
        object.__setattr__(self, "visits", tuple(self.visits))

    @property
    def duration(self):
        return self.end_time - self.start_time

    @property
    def request_ids(self):
        return tuple(v.request_id for v in self.visits)

    def revenue(self, instance):
        return sum(instance.request(v.request_id).revenue for v in self.visits)


@dataclass(frozen=True)
class Solution:
    """A set of routes plus bookkeeping totals.

    ``optimal`` is only meaningful for solver outputs that can certify
    optimality: the exact solver sets it True/False, heuristics leave None.
    """

    routes: tuple
    served: frozenset
    rejected: frozenset
    total_revenue: float
    worker_cost: float
    profit: float
    optimal: Optional[bool] = None

    def __post_init__(self):
        object.__setattr__(self, "routes", tuple(self.routes))
        object.__setattr__(self, "served", frozenset(self.served))
        object.__setattr__(self, "rejected", frozenset(self.rejected))


def assemble_solution(routes, instance, optimal=None):
    """Build a consistent Solution record from finished routes.

    Requests absent from every route are marked rejected.  Worker ids are
    reassigned to the route order so dropped routes leave no holes.
    """
    from dataclasses import replace

    routes = tuple(replace(r, worker=i) for i, r in enumerate(routes))
    served = set()
    for route in routes:
        for visit in route.visits:
            if visit.request_id in served:
                raise ValueError(f"request {visit.request_id} served twice")
            served.add(visit.request_id)
    revenue = sum(instance.request(rid).revenue for rid in served)
    cost = instance.parameters.worker_cost * len(routes)
    rejected = frozenset(r.id for r in instance.requests) - served
    return Solution(
        routes=routes,
        served=frozenset(served),
        rejected=rejected,
        total_revenue=revenue,
        worker_cost=cost,
        profit=revenue - cost,
        optimal=optimal,
    )


def empty_solution(instance, optimal=None):
    """The solution that serves nothing; profit is zero by definition."""
    return Solution(
        routes=(),
        served=frozenset(),
        rejected=frozenset(r.id for r in instance.requests),
        total_revenue=0.0,
        worker_cost=0.0,
        profit=0.0,
        optimal=optimal,
    )


# ---------------------------------------------------------------------------
# Objectives.
# ---------------------------------------------------------------------------

#: What a solve maximises: net profit (served revenue minus the cost of each
#: worker used), or the number of requests served.
OBJECTIVES = ("profit", "requests")


def check_objective(objective):
    """Raise ValueError unless ``objective`` is one of ``OBJECTIVES``."""
    if objective not in OBJECTIVES:
        raise ValueError(f"unknown objective {objective!r}")


def objective_value(solution, objective):
    """The value of ``solution`` under ``objective``; higher is better."""
    return solution.profit if objective == "profit" else float(len(solution.served))


def paying_routes(routes, instance):
    """The routes whose revenue covers their worker's cost; under the profit
    objective any other route only lowers the profit."""
    cost = instance.parameters.worker_cost
    return [r for r in routes if r.revenue(instance) >= cost - EPS]
