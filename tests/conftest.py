"""Shared fixtures: deterministic synthetic instances, a reusable corpus of
feasible insertion cases, and cached solver runs over the small benchmark
fleet (the expensive randomized-heuristic runs are computed once per session
and shared by every test that needs them)."""

from __future__ import annotations

import dataclasses
import math
import random
import time

import pytest
from hypothesis import HealthCheck, settings

from evrelo.exact import solve_exact
from evrelo.feasibility import validate_route
from evrelo.generator import small_instances
from evrelo.greedy import GreedyPolicy, run_greedy
from evrelo.insertion import (
    RhConfig,
    _simulate_insertion,
    apply_insertion,
    materialize_first_pair,
    run_ch,
    run_rh,
)
from evrelo.model import (
    Instance,
    Parameters,
    Request,
    RequestKind,
    RevenueModel,
)

settings.register_profile(
    "evrelo",
    max_examples=50,
    deadline=None,
    derandomize=True,
    suppress_health_check=[HealthCheck.too_slow],
)
settings.load_profile("evrelo")


# ---------------------------------------------------------------------------
# Hand-rolled instance builders.
# ---------------------------------------------------------------------------

def euclidean_matrix(points, detour=1.3):
    """Distance matrix from planar points; scaling by a constant detour
    factor keeps the triangle inequality intact."""
    n = len(points)
    return tuple(
        tuple(
            0.0 if i == j else detour * math.hypot(
                points[i][0] - points[j][0], points[i][1] - points[j][1]
            )
            for j in range(n)
        )
        for i in range(n)
    )


def synthetic_instance(rng, n_pairs=None, params=None):
    """Random geometric instance with wide windows, one location per request.

    Requests come in adjacent (pickup, delivery) id pairs: ids 2i+1 / 2i+2.
    """
    if n_pairs is None:
        n_pairs = rng.randint(3, 6)
    n = 2 * n_pairs
    points = [(5.0, 5.0)] + [(rng.uniform(0, 10), rng.uniform(0, 10)) for _ in range(n)]
    requests = []
    for i in range(n_pairs):
        lo = rng.uniform(0, 150)
        requests.append(
            Request(
                id=2 * i + 1,
                kind=RequestKind.PICKUP,
                location=2 * i + 1,
                tw_min=lo,
                tw_max=lo + rng.uniform(30, 200),
                battery=rng.uniform(0.5, 1.0),
                revenue=20.0,
            )
        )
        lo2 = rng.uniform(lo, 250)
        requests.append(
            Request(
                id=2 * i + 2,
                kind=RequestKind.DELIVERY,
                location=2 * i + 2,
                tw_min=lo2,
                tw_max=lo2 + rng.uniform(30, 200),
                battery=rng.uniform(0.0, 0.5),
                revenue=20.0,
            )
        )
    return Instance(
        parameters=params or Parameters(),
        requests=tuple(requests),
        distances=euclidean_matrix(points),
        revenue_model=RevenueModel(kind="flat", amount=20.0),
    )


def tight_windows(instance, rng):
    """``instance`` with about half of its windows narrowed to at most 30
    minutes."""
    return dataclasses.replace(instance, requests=tuple(
        dataclasses.replace(r, tw_max=r.tw_min + rng.uniform(0.0, 30.0)) if rng.random() < 0.5 else r
        for r in instance.requests))


def synthetic_pairs(instance):
    """The (pickup, delivery) id-adjacent pairs of a synthetic instance."""
    reqs = instance.requests
    return [(reqs[2 * i], reqs[2 * i + 1]) for i in range(len(reqs) // 2)]


def grow_route(instance, rng):
    """Build a route by random feasible insertions, recording every feasible
    (route, gap, pair) triple seen along the way.

    Returns (cases, final_route); cases entries are (route, gap, pair).
    """
    pairs = synthetic_pairs(instance)
    rng.shuffle(pairs)
    route = materialize_first_pair(pairs[0][0], pairs[0][1], instance)
    if not validate_route(route, instance).ok:
        return [], None
    cases = []
    for pair in pairs[1:]:
        feasible_gaps = []
        for gap in range(len(route.visits) // 2 + 1):
            if _simulate_insertion(route, gap, pair, instance)[0]:
                cases.append((route, gap, pair))
                feasible_gaps.append(gap)
        if feasible_gaps:
            route = apply_insertion(route, rng.choice(feasible_gaps), pair, instance)
    return cases, route


def build_insertion_corpus(target=10000, seed=20260822):
    """At least ``target`` feasible insertion cases over many random
    instances, plus the wall-clock seconds the construction took."""
    started = time.perf_counter()
    rng = random.Random(seed)
    corpus = []
    while len(corpus) < target:
        instance = synthetic_instance(rng)
        cases, _ = grow_route(instance, rng)
        corpus.extend((instance, route, gap, pair) for route, gap, pair in cases)
    return corpus, time.perf_counter() - started


def single_pair_reference():
    """Fixed one-pair instance with hand-computable timing.

    Geometry: depot -> pickup 5 km, pickup -> delivery 20 km, delivery ->
    depot 18 km; biking at 15 km/h and driving at 24 km/h this gives a 20-min
    approach ride, a 50-min drive and a 72-min return ride.  Windows
    [100, 200] and [180, 300], one-minute handling at each end.  The
    zero-waiting schedule leaves the depot at 108, reaches the pickup at 128,
    finishes parking at 180 and is back at 252.
    """
    params = Parameters(duty_time=300.0, ev_speed=24.0, bike_speed=15.0,
                        park_time=1.0, load_time=1.0, worker_cost=30.0)
    requests = (
        Request(id=1, kind=RequestKind.PICKUP, location=1, tw_min=100.0,
                tw_max=200.0, battery=1.0, revenue=20.0),
        Request(id=2, kind=RequestKind.DELIVERY, location=2, tw_min=180.0,
                tw_max=300.0, battery=0.0, revenue=20.0),
    )
    distances = (
        (0.0, 5.0, 18.0),
        (5.0, 0.0, 20.0),
        (18.0, 20.0, 0.0),
    )
    return Instance(
        parameters=params,
        requests=requests,
        distances=distances,
        revenue_model=RevenueModel(kind="flat", amount=20.0),
    )


# ---------------------------------------------------------------------------
# Session-wide solver runs over the small benchmark fleet.
# ---------------------------------------------------------------------------

FLEET_SEED = 0
FLEET_SIZE = 100
RH_ITERATIONS = 10000


@pytest.fixture(scope="session")
def small_fleet():
    return small_instances(FLEET_SIZE, seed=FLEET_SEED)


@pytest.fixture(scope="session")
def oracle_runs(small_fleet):
    """Exact solutions for both objectives plus compute seconds."""
    started = time.perf_counter()
    profit = tuple(solve_exact(inst, objective="profit") for inst in small_fleet)
    requests = tuple(solve_exact(inst, objective="requests") for inst in small_fleet)
    return {
        "profit": profit,
        "requests": requests,
        "seconds": time.perf_counter() - started,
    }


def _run_heuristic(name, instance, objective):
    if name == "nnh":
        return run_greedy(instance, GreedyPolicy.NEAREST,
                          drop_unprofitable=(objective == "profit"))
    if name == "muh":
        return run_greedy(instance, GreedyPolicy.MOST_URGENT,
                          drop_unprofitable=(objective == "profit"))
    if name == "ch":
        return run_ch(instance, objective=objective)
    if name == "rh":
        return run_rh(instance, RhConfig(iterations=RH_ITERATIONS, seed=0,
                                         objective=objective))
    raise ValueError(name)


@pytest.fixture(scope="session")
def heuristic_runs(small_fleet):
    """Every heuristic on every fleet instance under both objectives."""
    started = time.perf_counter()
    grid = {
        (name, objective): tuple(
            _run_heuristic(name, inst, objective) for inst in small_fleet
        )
        for name in ("nnh", "muh", "ch", "rh")
        for objective in ("profit", "requests")
    }
    grid["seconds"] = time.perf_counter() - started
    return grid


@pytest.fixture(scope="session")
def insertion_corpus():
    return build_insertion_corpus()
