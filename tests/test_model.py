"""Data-model units: travel-time conversion, profit accounting, solution
assembly and the validation baked into the dataclasses."""

import dataclasses
import math
import random

import pytest

from conftest import euclidean_matrix, synthetic_instance
from evrelo.errors import IndexOutOfRange, InvalidInstance, UnknownRequest
from evrelo.feasibility import route_start
from evrelo.model import (
    EPS,
    Instance,
    Parameters,
    Request,
    RequestKind,
    RevenueModel,
    RouteSchedule,
    ScheduledVisit,
    assemble_solution,
    empty_solution,
)


def flat_instance(requests, distances, params=None, amount=20.0):
    return Instance(
        parameters=params or Parameters(),
        requests=tuple(requests),
        distances=distances,
        revenue_model=RevenueModel(kind="flat", amount=amount),
    )


def two_station_instance(params=None, revenue=10.0):
    """Depot plus one pickup and one delivery on a 3-point line."""
    requests = (
        Request(id=1, kind=RequestKind.PICKUP, location=1, tw_min=0.0,
                tw_max=500.0, battery=1.0, revenue=revenue),
        Request(id=2, kind=RequestKind.DELIVERY, location=2, tw_min=0.0,
                tw_max=500.0, battery=0.0, revenue=revenue),
    )
    distances = (
        (0.0, 1.0, 2.0),
        (1.0, 0.0, 1.0),
        (2.0, 1.0, 0.0),
    )
    return flat_instance(requests, distances, params=params, amount=revenue)


# ---------------------------------------------------------------------------
# Travel time conversion.
# ---------------------------------------------------------------------------

def test_travel_time_zero_distance_any_mode():
    inst = two_station_instance()
    par = inst.parameters
    assert inst.distances[1][1] * 60.0 / par.bike_speed == 0.0
    assert inst.distances[1][1] * 60.0 / par.ev_speed == 0.0


def test_travel_time_bike_five_km_at_fifteen():
    inst = flat_instance(
        (),
        ((0.0, 5.0), (5.0, 0.0)),
        params=Parameters(bike_speed=15.0),
    )
    pickup = Request(id=1, kind=RequestKind.PICKUP, location=1, tw_min=0.0,
                     tw_max=500.0, battery=1.0, revenue=10.0)
    # The depot departure that reaches the pickup at minute 20.
    assert route_start(inst, pickup, 20.0) == pytest.approx(0.0, abs=1e-12)


def test_travel_time_ev_five_km_at_twenty_five():
    inst = flat_instance(
        (),
        ((0.0, 5.0), (5.0, 0.0)),
        params=Parameters(ev_speed=25.0),
    )
    assert inst.distances[0][1] * 60.0 / inst.parameters.ev_speed == pytest.approx(12.0, abs=1e-12)


# ---------------------------------------------------------------------------
# Profit accounting.
# ---------------------------------------------------------------------------

def test_empty_solution_profit_zero():
    inst = two_station_instance()
    sol = empty_solution(inst)
    assert sol.profit == 0.0
    assert sol.served == frozenset()
    assert sol.rejected == {1, 2}


def _route(visit_ids, start=0.0, end=100.0, worker=0):
    visits = tuple(ScheduledVisit(i, 0.0, 0.0, 1.0) for i in visit_ids)
    return RouteSchedule(worker=worker, start_time=start, visits=visits, end_time=end)


def test_one_route_four_requests_ten_each_cost_thirty():
    requests = tuple(
        Request(id=i, kind=RequestKind.PICKUP if i % 2 else RequestKind.DELIVERY,
                location=i, tw_min=0.0, tw_max=500.0, battery=0.5, revenue=10.0)
        for i in range(1, 5)
    )
    n = len(requests) + 1
    distances = tuple(tuple(0.0 if i == j else 1.0 for j in range(n)) for i in range(n))
    inst = flat_instance(requests, distances,
                         params=Parameters(worker_cost=30.0), amount=10.0)
    sol = assemble_solution([_route([1, 2, 3, 4])], inst)
    assert sol.profit == 10.0


def test_two_routes_six_requests_ten_each_cost_thirty():
    requests = tuple(
        Request(id=i, kind=RequestKind.PICKUP if i % 2 else RequestKind.DELIVERY,
                location=i, tw_min=0.0, tw_max=500.0, battery=0.5, revenue=10.0)
        for i in range(1, 7)
    )
    n = len(requests) + 1
    distances = tuple(tuple(0.0 if i == j else 1.0 for j in range(n)) for i in range(n))
    inst = flat_instance(requests, distances,
                         params=Parameters(worker_cost=30.0), amount=10.0)
    sol = assemble_solution([_route([1, 2, 3, 4]), _route([5, 6], worker=3)], inst)
    assert sol.profit == 0.0


def test_assemble_reassigns_worker_ids_in_order():
    inst = two_station_instance()
    sol = assemble_solution([_route([1, 2], worker=7)], inst)
    assert [r.worker for r in sol.routes] == [0]
    assert sol.served == {1, 2}
    assert sol.rejected == frozenset()


def test_assemble_rejects_duplicate_service():
    inst = two_station_instance()
    with pytest.raises(ValueError):
        assemble_solution([_route([1, 2]), _route([1, 2])], inst)


# ---------------------------------------------------------------------------
# Dataclass validation.
# ---------------------------------------------------------------------------

def test_parameters_reject_nonpositive_core_values():
    with pytest.raises(ValueError):
        Parameters(duty_time=0.0)
    with pytest.raises(ValueError):
        Parameters(ev_speed=-1.0)
    with pytest.raises(ValueError):
        Parameters(worker_count=0)
    with pytest.raises(ValueError):
        Parameters(worker_cost=-1.0)
    # zero handling times are legal (instant swap)
    Parameters(park_time=0.0, load_time=0.0)


def test_request_rejects_inverted_window_and_bad_battery():
    with pytest.raises(ValueError):
        Request(id=1, kind=RequestKind.PICKUP, location=1, tw_min=10.0,
                tw_max=5.0, battery=0.5, revenue=1.0)
    with pytest.raises(ValueError):
        Request(id=1, kind=RequestKind.PICKUP, location=1, tw_min=0.0,
                tw_max=5.0, battery=1.5, revenue=1.0)
    with pytest.raises(ValueError):
        Request(id=1, kind=RequestKind.PICKUP, location=1, tw_min=0.0,
                tw_max=5.0, battery=0.5, revenue=-1.0)


@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
def test_parameters_reject_non_finite_numbers(value):
    for name in ("duty_time", "ev_speed", "bike_speed", "park_time", "load_time",
                 "full_range", "recharge_time", "worker_cost"):
        with pytest.raises(ValueError, match="finite"):
            Parameters(**{name: value})


@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
def test_request_rejects_non_finite_numbers(value):
    fields = dict(id=1, kind=RequestKind.PICKUP, location=1, tw_min=0.0,
                  tw_max=5.0, battery=0.5, revenue=1.0)
    for name in ("tw_min", "tw_max", "battery", "revenue"):
        with pytest.raises(ValueError, match="finite"):
            Request(**{**fields, name: value})


def test_revenue_model_validation_and_flat_draw():
    with pytest.raises(ValueError):
        RevenueModel(kind="per_km")
    with pytest.raises(ValueError):
        RevenueModel(kind="vrc_frc", rent_min=20.0, rent_max=10.0)
    model = RevenueModel(kind="flat", amount=7.0)
    assert model.draw(random.Random(0)) == 7.0


def test_vrc_frc_draw_within_bounds_and_plain_float():
    model = RevenueModel(kind="vrc_frc")
    rng = random.Random(42)
    for _ in range(200):
        value = model.draw(rng)
        assert type(value) is float
        assert 16.45 - 1e-9 <= value <= 19.35 + 1e-9


def test_instance_request_lookup():
    inst = two_station_instance()
    assert inst.request(1).kind is RequestKind.PICKUP
    with pytest.raises(UnknownRequest):
        inst.request(3)
    assert [r.id for r in inst.pickups] == [1]
    assert [r.id for r in inst.deliveries] == [2]


def test_instance_rejects_request_location_outside_matrix():
    inst = two_station_instance()

    def with_pickup_at(location):
        extra = Request(id=3, kind=RequestKind.PICKUP, location=location, tw_min=0.0,
                        tw_max=500.0, battery=1.0, revenue=10.0)
        return flat_instance(inst.requests + (extra,), inst.distances)

    # Location 2 is the last row of the 3-by-3 matrix.
    assert with_pickup_at(2).request(3).location == 2
    # Location 0 is the depot.
    for location in (0, 3, 7):
        with pytest.raises(IndexOutOfRange, match="request 3"):
            with_pickup_at(location)


def test_instance_rejects_a_duplicate_id_and_a_ragged_matrix():
    inst = two_station_instance()
    twin = dataclasses.replace(inst.request(2), id=1)
    with pytest.raises(InvalidInstance, match="request 1: duplicate id"):
        flat_instance((inst.request(1), twin), inst.distances)
    with pytest.raises(InvalidInstance, match="row 1 has 1 entries, expected 2"):
        flat_instance((inst.request(1),), ((0.0, 1.0), (1.0,)))


def test_instance_distance_checks_both_indices():
    inst = two_station_instance()
    assert inst.distance(0, 2) == 2.0
    for origin, destination in ((3, 0), (0, 3), (-1, 1), (1, -1)):
        with pytest.raises(IndexOutOfRange):
            inst.distance(origin, destination)


def test_route_schedule_duration_and_revenue():
    inst = two_station_instance(revenue=10.0)
    route = _route([1, 2], start=5.0, end=45.0)
    assert route.duration == 40.0
    assert route.request_ids == (1, 2)
    assert route.revenue(inst) == 20.0


def test_euclidean_matrix_respects_triangle_inequality():
    rng = random.Random(3)
    pts = [(rng.uniform(0, 10), rng.uniform(0, 10)) for _ in range(6)]
    mat = euclidean_matrix(pts)
    n = len(mat)
    for i in range(n):
        assert mat[i][i] == 0.0
        for j in range(n):
            assert mat[i][j] == pytest.approx(mat[j][i])
            for k in range(n):
                assert mat[i][j] <= mat[i][k] + mat[k][j] + EPS


def test_synthetic_instance_round_numbers():
    inst = synthetic_instance(random.Random(1), n_pairs=4)
    assert len(inst.requests) == 8
    assert len(inst.pickups) == 4
    assert len(inst.deliveries) == 4
    assert len(inst.distances) == 9
