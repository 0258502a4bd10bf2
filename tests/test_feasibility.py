"""Schedule propagation and validation: arrival/waiting recurrences, the
construction-time screens, and the validator's violation reporting."""

import dataclasses
import random

import pytest
from hypothesis import given, strategies as st

from conftest import grow_route, single_pair_reference, synthetic_instance
from evrelo.errors import WrongKind
from evrelo.feasibility import (
    ScheduleState,
    arrival_at_delivery,
    arrival_at_pickup,
    charge_at_departure,
    delivery_feasible,
    initial_state,
    opening_state,
    pickup_feasible,
    replay_route,
    route_start_for_pickup,
    validate_route,
    validate_solution,
    waiting_time,
)
from evrelo.greedy import GreedyPolicy, run_greedy
from evrelo.insertion import run_ch
from evrelo.model import (
    Instance,
    Parameters,
    Request,
    RequestKind,
    RevenueModel,
    RouteSchedule,
    ScheduledVisit,
    assemble_solution,
)


def _state(location, ready, start=0.0, last=None, charge=None):
    return ScheduleState(location=location, ready_time=ready, start_time=start,
                         last_kind=last, carried_charge=charge)


# ---------------------------------------------------------------------------
# Arrival recurrences.
# ---------------------------------------------------------------------------

def test_pickup_arrival_after_delivery_leg():
    # previous delivery done at 100 with no waiting, one minute of parking,
    # then a 5 km ride at 15 km/h: 100 + 1 + 20 = 121
    inst = single_pair_reference()
    state = _state(location=0, ready=101.0, last=RequestKind.DELIVERY)
    assert arrival_at_pickup(state, inst.request(1), inst) == pytest.approx(121.0)


def test_first_pickup_start_backdated_to_window_opening():
    inst = single_pair_reference()
    pickup = inst.request(1)
    assert route_start_for_pickup(pickup, inst) == pytest.approx(80.0)
    state = opening_state(pickup, inst)
    assert arrival_at_pickup(state, pickup, inst) == pytest.approx(100.0)


def test_pickup_arrival_degenerate_zero_leg():
    inst = single_pair_reference()
    state = _state(location=1, ready=42.0, last=RequestKind.DELIVERY)
    assert arrival_at_pickup(state, inst.request(1), inst) == pytest.approx(42.0)


def test_pickup_arrival_rejects_wrong_kind_or_held_ev():
    inst = single_pair_reference()
    with pytest.raises(WrongKind):
        arrival_at_pickup(initial_state(0.0), inst.request(2), inst)
    held = _state(location=1, ready=0.0, last=RequestKind.PICKUP, charge=1.0)
    with pytest.raises(WrongKind):
        arrival_at_pickup(held, inst.request(1), inst)


def test_delivery_arrival_counts_driving_from_pickup():
    # service at the pickup starts at 128, loading takes 1 minute, the EV leg
    # is 50 minutes: parked-EV arrival at 179, zero residual wait
    inst = single_pair_reference()
    state = _state(location=1, ready=129.0, last=RequestKind.PICKUP, charge=1.0)
    arrival = arrival_at_delivery(state, inst.request(2), inst)
    assert arrival == pytest.approx(179.0)
    assert waiting_time(inst.request(2), arrival, inst.parameters.park_time) == 0.0


def test_delivery_arrival_shifts_linearly_with_pickup_waiting():
    inst = single_pair_reference()
    base = _state(location=1, ready=129.0, last=RequestKind.PICKUP, charge=1.0)
    delayed = _state(location=1, ready=139.0, last=RequestKind.PICKUP, charge=1.0)
    a0 = arrival_at_delivery(base, inst.request(2), inst)
    a1 = arrival_at_delivery(delayed, inst.request(2), inst)
    assert a1 - a0 == pytest.approx(10.0)


def test_delivery_arrival_degenerate_zero_leg():
    inst = single_pair_reference()
    state = _state(location=2, ready=50.0, last=RequestKind.PICKUP, charge=1.0)
    assert arrival_at_delivery(state, inst.request(2), inst) == pytest.approx(50.0)


def test_delivery_arrival_requires_preceding_pickup():
    inst = single_pair_reference()
    with pytest.raises(WrongKind):
        arrival_at_delivery(initial_state(0.0), inst.request(2), inst)


# ---------------------------------------------------------------------------
# Waiting and charging.
# ---------------------------------------------------------------------------

def test_waiting_delivery_parking_overlaps_window():
    req = Request(id=2, kind=RequestKind.DELIVERY, location=1, tw_min=180.0,
                  tw_max=300.0, battery=0.0, revenue=1.0)
    assert waiting_time(req, 180.0, 1.0) == 0.0
    assert waiting_time(req, 179.0, 1.0) == 0.0
    assert waiting_time(req, 170.0, 1.0) == pytest.approx(9.0)


def test_waiting_pickup_full_wait():
    req = Request(id=1, kind=RequestKind.PICKUP, location=1, tw_min=100.0,
                  tw_max=300.0, battery=0.5, revenue=1.0)
    assert waiting_time(req, 90.0, 1.0) == pytest.approx(10.0)
    assert waiting_time(req, 250.0, 1.0) == 0.0


def test_charge_accrues_while_parked_and_caps_at_full():
    par = Parameters(recharge_time=240.0)
    req = Request(id=1, kind=RequestKind.PICKUP, location=1, tw_min=100.0,
                  tw_max=300.0, battery=0.5, revenue=1.0)
    assert charge_at_departure(req, 100.0, par) == pytest.approx(0.5)
    assert charge_at_departure(req, 220.0, par) == pytest.approx(1.0)
    assert charge_at_departure(req, 160.0, par) == pytest.approx(0.75)


# ---------------------------------------------------------------------------
# Construction screens.
# ---------------------------------------------------------------------------

def test_pickup_feasible_window_boundary_inclusive():
    inst = single_pair_reference()
    pickup, delivery = inst.request(1), inst.request(2)
    at_boundary = initial_state(180.0)       # arrival exactly 200 == tw_max
    past_boundary = initial_state(180.001)
    assert pickup_feasible(at_boundary, pickup, [delivery], inst)
    assert not pickup_feasible(past_boundary, pickup, [delivery], inst)


def test_pickup_without_candidate_deliveries_is_infeasible():
    inst = single_pair_reference()
    assert not pickup_feasible(initial_state(80.0), inst.request(1), [], inst)


def test_delivery_feasible_battery_recharge_window():
    # drive 30 km on a 150 km range starting from half charge: 0.2 spent;
    # half a full recharge fits before the window closes, so a 0.7 target
    # passes (0.3 + 0.5 >= 0.7) and a 0.81 target fails
    params = Parameters(ev_speed=25.0, recharge_time=240.0, full_range=150.0)
    distances = (
        (0.0, 1.0, 30.5),
        (1.0, 0.0, 30.0),
        (30.5, 30.0, 0.0),
    )

    def delivery(target):
        return Request(id=2, kind=RequestKind.DELIVERY, location=2, tw_min=100.0,
                       tw_max=292.0, battery=target, revenue=1.0)

    state = _state(location=1, ready=100.0, last=RequestKind.PICKUP, charge=0.5)
    inst = Instance(parameters=params,
                    requests=(delivery(0.7),), distances=distances)
    # arrival = 100 + 30*60/25 = 172; slack = (292-172)/240 = 0.5
    assert delivery_feasible(state, delivery(0.7), inst)
    assert not delivery_feasible(state, delivery(0.81), inst)


def test_delivery_leg_beyond_range_is_infeasible():
    params = Parameters(full_range=150.0)
    distances = (
        (0.0, 1.0, 160.0),
        (1.0, 0.0, 160.0),
        (160.0, 160.0, 0.0),
    )
    target = Request(id=2, kind=RequestKind.DELIVERY, location=2, tw_min=0.0,
                     tw_max=100000.0, battery=0.0, revenue=1.0)
    inst = Instance(parameters=params, requests=(target,), distances=distances)
    state = _state(location=1, ready=0.0, last=RequestKind.PICKUP, charge=1.0)
    assert not delivery_feasible(state, target, inst)


def test_delivery_zero_target_with_full_charge_is_feasible():
    inst = single_pair_reference()
    state = _state(location=1, ready=129.0, last=RequestKind.PICKUP, charge=1.0)
    assert delivery_feasible(state, inst.request(2), inst)


def test_delivery_feasible_requires_held_ev():
    inst = single_pair_reference()
    with pytest.raises(WrongKind):
        delivery_feasible(initial_state(0.0), inst.request(2), inst)


# ---------------------------------------------------------------------------
# Replay.
# ---------------------------------------------------------------------------

def test_replay_reference_pair_schedule():
    inst = single_pair_reference()
    route = replay_route(inst, 108.0, (inst.request(1), inst.request(2)))
    assert route.start_time == pytest.approx(108.0)
    assert [v.arrival for v in route.visits] == pytest.approx([128.0, 179.0])
    assert [v.waiting for v in route.visits] == pytest.approx([0.0, 0.0])
    assert route.visits[0].ev_charge == pytest.approx(1.0)
    assert route.visits[1].ev_charge is None
    assert route.end_time == pytest.approx(252.0)
    assert route.duration == pytest.approx(144.0)
    assert validate_route(route, inst).ok


def test_replay_rejects_broken_alternation():
    inst = single_pair_reference()
    with pytest.raises(WrongKind):
        replay_route(inst, 0.0, (inst.request(2), inst.request(1)))
    with pytest.raises(WrongKind):
        replay_route(inst, 0.0, (inst.request(1),))
    with pytest.raises(WrongKind):
        replay_route(inst, 0.0, ())


# ---------------------------------------------------------------------------
# Validator: every violation class.
# ---------------------------------------------------------------------------

def _valid_route(inst):
    return replay_route(inst, 108.0, (inst.request(1), inst.request(2)))


def test_validate_route_flags_pickup_window():
    inst = single_pair_reference()
    late = replay_route(inst, 190.0, (inst.request(1), inst.request(2)))
    result = validate_route(late, inst)
    assert not result.ok
    assert any(v.code == "pickup_window" and v.visit == 0 for v in result.violations)


def test_validate_route_flags_delivery_window():
    inst = single_pair_reference()
    # shrink the delivery window below the replayed arrival of 179
    tight = dataclasses.replace(
        inst,
        requests=(inst.request(1),
                  dataclasses.replace(inst.request(2), tw_min=100.0, tw_max=170.0)),
    )
    route = _valid_route(inst)
    result = validate_route(route, tight)
    assert any(v.code == "delivery_window" and v.visit == 1 for v in result.violations)


def test_validate_route_flags_duty_exceeded_by_one_minute():
    inst = single_pair_reference()
    tight = dataclasses.replace(inst, parameters=dataclasses.replace(
        inst.parameters, duty_time=143.0))
    result = validate_route(_valid_route(inst), tight)
    assert any(v.code == "duty" for v in result.violations)


def test_validate_route_flags_battery_range_and_target():
    inst = single_pair_reference()
    # charge picked up at 128 is 0.0 + 28/240 of recharge, short of the
    # 20 km leg's 0.1333 share of range
    drained = dataclasses.replace(
        inst,
        requests=(dataclasses.replace(inst.request(1), battery=0.0),
                  inst.request(2)),
    )
    route = replay_route(drained, 108.0, (drained.request(1), drained.request(2)))
    result = validate_route(route, drained)
    assert any(v.code == "battery_range" for v in result.violations)

    # arrive with 0.8667 of charge; closing the window at 185 leaves only
    # 6/240 of recharge slack, so a 0.999 handover target is unreachable
    greedy_target = dataclasses.replace(
        inst,
        requests=(inst.request(1),
                  dataclasses.replace(inst.request(2), tw_max=185.0, battery=0.999)),
    )
    route2 = replay_route(greedy_target, 108.0,
                          (greedy_target.request(1), greedy_target.request(2)))
    result2 = validate_route(route2, greedy_target)
    assert any(v.code == "battery_target" for v in result2.violations)


def test_validate_route_flags_tampered_stored_values():
    inst = single_pair_reference()
    route = _valid_route(inst)
    bad_visit = dataclasses.replace(route.visits[0], arrival=route.visits[0].arrival + 1.0)
    tampered = dataclasses.replace(route, visits=(bad_visit, route.visits[1]))
    assert any(v.code == "stored_schedule"
               for v in validate_route(tampered, inst).violations)
    wrong_end = dataclasses.replace(route, end_time=route.end_time + 2.0)
    assert any(v.code == "end_time"
               for v in validate_route(wrong_end, inst).violations)


def test_validate_route_flags_alternation_and_duplicates():
    inst = single_pair_reference()
    route = _valid_route(inst)
    flipped = dataclasses.replace(route, visits=(route.visits[1], route.visits[0]))
    assert any(v.code == "alternation"
               for v in validate_route(flipped, inst).violations)
    doubled = dataclasses.replace(
        route, visits=route.visits + route.visits)
    assert not validate_route(doubled, inst).ok


def test_validate_solution_duplicate_service_and_worker_limit():
    inst = single_pair_reference()
    route = _valid_route(inst)
    twice = dataclasses.replace(route, worker=1)
    sol = assemble_solution([route], inst)
    duplicated = dataclasses.replace(sol, routes=(route, twice))
    result = validate_solution(duplicated, inst)
    assert any(v.code == "duplicate_service" for v in result.violations)

    one_worker = dataclasses.replace(inst, parameters=dataclasses.replace(
        inst.parameters, worker_count=1))
    assert any(v.code == "worker_limit"
               for v in validate_solution(duplicated, one_worker).violations)


def test_validate_solution_accounting_and_coverage():
    inst = single_pair_reference()
    sol = assemble_solution([_valid_route(inst)], inst)
    assert validate_solution(sol, inst).ok

    wrong_profit = dataclasses.replace(sol, profit=sol.profit + 1.0)
    assert any(v.code == "accounting"
               for v in validate_solution(wrong_profit, inst).violations)

    missing = dataclasses.replace(sol, served=frozenset({1}))
    codes = {v.code for v in validate_solution(missing, inst).violations}
    assert "served_set" in codes


def test_validate_empty_solution_ok():
    inst = single_pair_reference()
    sol = assemble_solution([], inst)
    assert validate_solution(sol, inst).ok


def test_validation_result_describe():
    inst = single_pair_reference()
    late = replay_route(inst, 190.0, (inst.request(1), inst.request(2)))
    result = validate_route(late, inst)
    text = result.describe()
    assert "pickup_window" in text
    assert result.first is not None
    assert validate_route(_valid_route(inst), inst).describe() == "OK"


# ---------------------------------------------------------------------------
# Properties: randomly built routes and solutions replay cleanly.
# ---------------------------------------------------------------------------

@given(st.integers(min_value=0, max_value=10_000))
def test_randomly_grown_routes_validate(seed):
    rng = random.Random(seed)
    instance = synthetic_instance(rng)
    _, route = grow_route(instance, rng)
    if route is not None:
        assert validate_route(route, instance).ok


@given(st.integers(min_value=0, max_value=10_000))
def test_heuristic_solutions_validate(seed):
    rng = random.Random(seed)
    instance = synthetic_instance(rng)
    for solution in (
        run_ch(instance, objective="requests"),
        run_greedy(instance, GreedyPolicy.NEAREST),
        run_greedy(instance, GreedyPolicy.MOST_URGENT),
    ):
        assert validate_solution(solution, instance).ok
