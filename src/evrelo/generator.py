"""Synthetic instance generation.

A minute-stepped simulation of a station-based EV fleet produces relocation
requests: a customer arriving at an empty station leaves behind a delivery
request, an EV returning to a full station leaves behind a pickup request.
Station geometry, demand and charge levels are all drawn from a seeded
generator, so every instance is a pure function of its configuration.
"""

from __future__ import annotations

import bisect
import heapq
import math
from dataclasses import dataclass, replace

import numpy as np

from .errors import DegenerateConfig
from .model import Instance, Parameters, Request, RequestKind, RevenueModel


# Road distance over straight-line distance.
_DETOUR_FACTOR = 1.3


@dataclass(frozen=True)
class GeneratorConfig:
    """Knobs of the fleet simulation."""

    stations: int = 12
    capacity: int = 4
    fleet: int = 24
    horizon: float = 480.0
    demand_rate: float = 0.6
    seed: int = 0
    revenue_model: RevenueModel | None = None
    area_km: float = 10.0

    def __post_init__(self):
        if self.stations < 1:
            raise DegenerateConfig("at least one station is required")
        if self.capacity < 1:
            raise DegenerateConfig("station capacity must be at least 1")
        if self.fleet < 0:
            raise DegenerateConfig("fleet size must be non-negative")
        if self.fleet > self.stations * self.capacity:
            raise DegenerateConfig("fleet does not fit into the stations")
        # Written so that a NaN fails each test; an infinity fails isfinite.
        if not (math.isfinite(self.horizon) and self.horizon > 0):
            raise DegenerateConfig("simulation horizon must be positive and finite")
        if not (math.isfinite(self.demand_rate) and self.demand_rate >= 0):
            raise DegenerateConfig("demand rate must be non-negative and finite")
        if not (math.isfinite(self.area_km) and self.area_km > 0):
            raise DegenerateConfig("service area must be positive and finite")


class _Ev:
    """A docked EV: charge level and the minute it docked (charging accrues
    lazily from that moment)."""

    __slots__ = ("charge", "since", "order")

    def __init__(self, charge, since, order):
        self.charge = charge
        self.since = since
        self.order = order

    def level(self, now, recharge_time):
        return min(1.0, self.charge + (now - self.since) / recharge_time)


def _station_coords(rng, config):
    return [
        (float(rng.uniform(0.0, config.area_km)), float(rng.uniform(0.0, config.area_km)))
        for _ in range(config.stations)
    ]


def _road_km(a, b):
    return math.dist(a, b) * _DETOUR_FACTOR


def generate(config):
    """Run the simulation and assemble the resulting instance.

    Request ids are chronological.  The distance matrix has one row for the
    depot (placed at the center of the service area) and one row per
    request, located at the station that emitted it; road distances are
    Euclidean distances scaled by a fixed detour factor.  Each request row
    is read from the station-to-station table, so requests at one station
    share one row object; the diagonal is the table's ``0.0``.

    Each trip's (origin, destination) pair is drawn exactly as
    ``Generator.choice(p=...)`` draws from the normalised pair weights ``p``:
    the cumulative table ``p.cumsum()`` divided by its last entry, one
    ``random()`` per trip and a right-side search.  The table is built once
    per simulation, not once per trip.
    """
    rng = np.random.default_rng(config.seed)
    params = Parameters()
    revenue_model = config.revenue_model or RevenueModel()
    coords = _station_coords(rng, config)
    gamma = params.recharge_time
    full_range = params.full_range

    station_km = [
        [_road_km(coords[i], coords[j]) for j in range(config.stations)]
        for i in range(config.stations)
    ]

    weights = rng.random((config.stations, config.stations))
    np.fill_diagonal(weights, 0.0)
    flat = weights.reshape(-1)
    total = float(flat.sum())
    cdf = None
    if total > 0:
        cdf = (flat / total).cumsum()
        cdf /= cdf[-1]
        cdf = cdf.tolist()

    docked = {s: [] for s in range(config.stations)}
    order = 0
    for s in range(config.fleet):
        station = s % config.stations
        docked[station].append(_Ev(float(rng.uniform(0.4, 1.0)), 0.0, order))
        order += 1

    dock_log = {s: [] for s in range(config.stations)}      # EV docked at time t
    depart_log = {s: [] for s in range(config.stations)}    # EV left at time t
    stubs = []  # (time, kind, station, battery)
    in_flight = []  # heap of (arrival time, tiebreak, station, charge)
    tiebreak = 0

    def land(now_limit):
        nonlocal tiebreak
        while in_flight and in_flight[0][0] <= now_limit:
            t_arr, _, station, charge = heapq.heappop(in_flight)
            if len(docked[station]) < config.capacity:
                docked[station].append(_Ev(charge, t_arr, tiebreak))
                tiebreak += 1
                dock_log[station].append(t_arr)
            else:
                # Full station: the EV is left for the relocation service.
                stubs.append((t_arr, RequestKind.PICKUP, station, charge))

    horizon = float(config.horizon)
    for minute in range(int(horizon)):
        land(float(minute))
        if cdf is None or config.stations < 2:
            continue
        trips = int(rng.poisson(config.demand_rate))
        for _ in range(trips):
            pair = bisect.bisect_right(cdf, rng.random())
            origin, dest = divmod(pair, config.stations)
            if not docked[origin]:
                needed = float(rng.uniform(0.1, 0.4))
                stubs.append((float(minute), RequestKind.DELIVERY, origin, needed))
                continue
            best = max(
                range(len(docked[origin])),
                key=lambda k: (docked[origin][k].level(minute, gamma), -docked[origin][k].order),
            )
            ev = docked[origin][best]
            level = ev.level(float(minute), gamma)
            km = station_km[origin][dest]
            if level - km / full_range < 0.0:
                continue  # not enough charge for the trip: demand lost
            del docked[origin][best]
            depart_log[origin].append(float(minute))
            t_arr = float(minute) + km * 60.0 / params.ev_speed
            if t_arr <= horizon:
                heapq.heappush(in_flight, (t_arr, tiebreak, dest, level - km / full_range))
                tiebreak += 1
    land(horizon)

    stubs.sort(key=lambda s: s[0])
    depot = (config.area_km / 2.0, config.area_km / 2.0)
    # math.dist is symmetric, so one depot distance per station serves both
    # the depot's row and its column.
    depot_km = [_road_km(depot, c) for c in coords]
    at = [s[2] for s in stubs]
    rows = [(depot_km[s],) + tuple(station_km[s][t] for t in at) for s in range(config.stations)]
    distances = ((0.0,) + tuple(depot_km[s] for s in at),) + tuple(rows[s] for s in at)

    requests = []
    for idx, (t, kind, station, battery) in enumerate(stubs):
        events = dock_log[station] if kind is RequestKind.DELIVERY else depart_log[station]
        later = [e for e in events if e > t]
        tw_max = min(later) if later else horizon
        requests.append(
            Request(
                id=idx + 1,
                kind=kind,
                location=idx + 1,
                tw_min=t,
                tw_max=tw_max,
                battery=battery,
                revenue=revenue_model.draw(rng),
            )
        )

    provenance = {
        "seed": config.seed,
        "stations": config.stations,
        "capacity": config.capacity,
        "fleet": config.fleet,
        "horizon": config.horizon,
        "demand_rate": config.demand_rate,
    }
    return Instance(
        parameters=params,
        requests=tuple(requests),
        distances=distances,
        revenue_model=revenue_model,
        provenance=provenance,
    )


# ---------------------------------------------------------------------------
# Benchmark sets.
# ---------------------------------------------------------------------------

_SEED_STRIDE = 100_003


def make_benchmark(set_name, count, seed=0):
    """Reproducible benchmark collections.

    ``amat_like``: flat-revenue instances sized around the low twenties.
    ``vamat_like``: variable-revenue instances whose sizes sweep from the
    mid teens to the mid forties, for size-sensitivity studies.
    """
    if count < 1:
        raise ValueError("count must be at least 1")
    instances = []
    for i in range(count):
        child = seed * _SEED_STRIDE + i
        if set_name == "amat_like":
            cfg = GeneratorConfig(
                stations=12,
                capacity=8,
                fleet=48,
                horizon=480.0,
                demand_rate=0.27,
                seed=child,
                revenue_model=RevenueModel(kind="flat", amount=20.0),
            )
        elif set_name == "vamat_like":
            span = i / (count - 1) if count > 1 else 0.5
            cfg = GeneratorConfig(
                stations=12,
                capacity=8,
                fleet=48,
                horizon=480.0,
                demand_rate=0.20 + 0.22 * span,
                seed=child,
                revenue_model=RevenueModel(kind="vrc_frc"),
            )
        else:
            raise ValueError(f"unknown benchmark set {set_name!r}")
        instances.append(generate(cfg))
    return tuple(instances)


def _truncate(instance, max_pickups, max_deliveries):
    """Keep the chronologically first few requests of each kind, rebuilding
    ids, locations and the distance matrix accordingly."""
    kept = []
    pickups = deliveries = 0
    for r in instance.requests:
        if r.kind is RequestKind.PICKUP and pickups < max_pickups:
            kept.append(r)
            pickups += 1
        elif r.kind is RequestKind.DELIVERY and deliveries < max_deliveries:
            kept.append(r)
            deliveries += 1
    index = [0] + [r.location for r in kept]
    distances = tuple(
        tuple(instance.distances[i][j] for j in index) for i in index
    )
    requests = tuple(
        replace(r, id=k + 1, location=k + 1) for k, r in enumerate(kept)
    )
    provenance = dict(instance.provenance or {})
    provenance["truncated_to"] = [max_pickups, max_deliveries]
    return Instance(
        parameters=instance.parameters,
        requests=requests,
        distances=distances,
        revenue_model=instance.revenue_model,
        provenance=provenance,
    )


def small_instances(count, seed=0, revenue_model=None):
    """Tiny oracle-sized instances: at most four pickups and four
    deliveries each, generated from short low-demand simulations.

    Each instance is truncated to an equal number of pickups and
    deliveries.  Unbalanced surpluses can never all be served (routes
    alternate pickup/delivery), and trimming them up front keeps these
    miniature fixtures meaningful for solver-vs-solver comparisons.
    """
    if count < 1:
        raise ValueError("count must be at least 1")
    model = revenue_model or RevenueModel(kind="flat", amount=20.0)
    out = []
    for i in range(count):
        cfg = GeneratorConfig(
            stations=6,
            capacity=3,
            fleet=9,
            horizon=240.0,
            demand_rate=0.3,
            seed=seed * _SEED_STRIDE + i,
            revenue_model=model,
            area_km=6.0,
        )
        inst = generate(cfg)
        cap = min(4, len(inst.pickups), len(inst.deliveries))
        out.append(_truncate(inst, cap, cap))
    return tuple(out)


def reprice_frc(instance, frc):
    """Shift every request's fixed revenue component to ``frc`` (finite, >= 0).

    Only meaningful for variable-revenue instances: each revenue keeps its
    time-based component and swaps the old fixed component for the new one.
    """
    model = instance.revenue_model
    if model is None or model.kind != "vrc_frc":
        raise ValueError("repricing requires a variable-revenue instance")
    if not 0 <= frc < math.inf:
        raise ValueError(f"fixed revenue component must be finite and non-negative, got {frc!r}")
    delta = frc - model.frc
    requests = tuple(replace(r, revenue=r.revenue + delta) for r in instance.requests)
    return Instance(
        parameters=instance.parameters,
        requests=requests,
        distances=instance.distances,
        revenue_model=replace(model, frc=frc),
        provenance=instance.provenance,
    )


def profit_demo_instance():
    """Small hand-built instance with a deliberate objective split.

    Ten requests, tight windows, uniform 10 km legs.  Serving six requests
    needs two workers and nets zero profit; the best profit keeps one worker
    on a four-request chain for 10.  Used to show that maximizing served
    requests and maximizing profit genuinely part ways.
    """
    params = Parameters(
        duty_time=240.0,
        ev_speed=30.0,
        bike_speed=20.0,
        park_time=1.0,
        load_time=1.0,
        full_range=150.0,
        recharge_time=240.0,
        worker_count=2,
        worker_cost=30.0,
    )
    windows = [
        (RequestKind.PICKUP, 30.0),
        (RequestKind.DELIVERY, 51.0),
        (RequestKind.PICKUP, 82.0),
        (RequestKind.DELIVERY, 103.0),
        (RequestKind.PICKUP, 200.0),
        (RequestKind.DELIVERY, 221.0),
        (RequestKind.PICKUP, 200.0),
        (RequestKind.DELIVERY, 221.0),
        (RequestKind.PICKUP, 200.0),
        (RequestKind.DELIVERY, 221.0),
    ]
    requests = tuple(
        Request(
            id=i + 1,
            kind=kind,
            location=i + 1,
            tw_min=t,
            tw_max=t,
            battery=1.0 if kind is RequestKind.PICKUP else 0.0,
            revenue=10.0,
        )
        for i, (kind, t) in enumerate(windows)
    )
    n = len(requests) + 1
    distances = tuple(
        tuple(0.0 if i == j else 10.0 for j in range(n)) for i in range(n)
    )
    return Instance(
        parameters=params,
        requests=requests,
        distances=distances,
        revenue_model=RevenueModel(kind="flat", amount=10.0),
        provenance={"built": "profit-demo"},
    )
