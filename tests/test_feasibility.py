"""Schedule propagation and validation: the pickup/delivery kernel, the
greedy construction screens, and the validator's violation reporting."""

import dataclasses
import math
import random
from types import SimpleNamespace

import pytest
from hypothesis import given, strategies as st

from conftest import grow_route, single_pair_reference, synthetic_instance, synthetic_pairs
from evrelo.errors import WrongKind
from evrelo.exact import solve_exact
from evrelo.feasibility import (
    propagate,
    replay_route,
    route_start,
    schedule_route,
    validate_route,
    validate_solution,
)
from evrelo.generator import small_instances
from evrelo.greedy import (
    GreedyPolicy,
    Position,
    delivery_feasible,
    pickup_feasible,
    run_greedy,
    select_next,
)
from evrelo.insertion import _simulate_insertion, run_ch
from evrelo.model import (
    Instance,
    Parameters,
    Request,
    RequestKind,
    RouteSchedule,
    ScheduledVisit,
    assemble_solution,
)
from evrelo.reporting import ALGORITHMS, run_algorithm


def _reference_pair(inst):
    return (inst.request(1), inst.request(2))


def _with(inst, pickup=None, delivery=None):
    """The reference instance with its pickup or delivery fields replaced."""
    return dataclasses.replace(inst, requests=(
        dataclasses.replace(inst.request(1), **(pickup or {})),
        dataclasses.replace(inst.request(2), **(delivery or {})),
    ))


# ---------------------------------------------------------------------------
# Arrival recurrences.
# ---------------------------------------------------------------------------

def test_pickup_arrival_after_delivery_leg():
    # previous delivery done at 100 with no waiting, one minute of parking,
    # then a 5 km ride at 15 km/h: 100 + 1 + 20 = 121
    inst = single_pair_reference()
    stops, _, _ = propagate(inst, 101.0, 0, _reference_pair(inst))
    assert stops[0][0] == pytest.approx(121.0)


def test_first_pickup_start_backdated_to_window_opening():
    inst = single_pair_reference()
    pickup = inst.request(1)
    start = route_start(inst, pickup, pickup.tw_min)
    assert start == pytest.approx(80.0)
    route = replay_route(inst, start, _reference_pair(inst))
    assert route.visits[0].arrival == pytest.approx(100.0)
    assert route.visits[0].waiting == pytest.approx(0.0)


def test_pickup_arrival_degenerate_zero_leg():
    inst = single_pair_reference()
    stops, _, _ = propagate(inst, 142.0, 1, _reference_pair(inst))
    assert stops[0][0] == pytest.approx(142.0)


def test_pickup_arrival_rejects_wrong_kind_or_held_ev():
    inst = single_pair_reference()
    pickup, delivery = _reference_pair(inst)
    with pytest.raises(WrongKind):
        replay_route(inst, 0.0, (delivery, delivery))
    # riding to a pickup while the EV of the previous one is still held
    with pytest.raises(WrongKind):
        replay_route(inst, 0.0, (pickup, pickup))


def test_delivery_arrival_counts_driving_from_pickup():
    # service at the pickup starts at 128, loading takes 1 minute, the EV leg
    # is 50 minutes: parked-EV arrival at 179, zero residual wait
    inst = single_pair_reference()
    stops, dep, failures = propagate(inst, 128.0, 1, _reference_pair(inst))
    assert stops[1] == pytest.approx((179.0, 0.0, None))
    assert dep == pytest.approx(180.0)
    assert failures == []


def test_delivery_arrival_shifts_linearly_with_pickup_waiting():
    inst = single_pair_reference()
    # the pickup window opening at 138 holds the worker 10 minutes
    delayed = _with(inst, pickup={"tw_min": 138.0})
    base, _, _ = propagate(inst, 108.0, 0, _reference_pair(inst))
    held, _, _ = propagate(delayed, 108.0, 0, _reference_pair(delayed))
    assert held[0][1] == pytest.approx(10.0)
    assert held[1][0] - base[1][0] == pytest.approx(10.0)


def test_delivery_arrival_degenerate_zero_leg():
    # pickup and delivery share a station: the EV arrives as soon as it is
    # loaded
    inst = _with(single_pair_reference(), pickup={"tw_min": 0.0}, delivery={"location": 1})
    stops, _, _ = propagate(inst, 49.0, 1, _reference_pair(inst))
    assert stops[1][0] == pytest.approx(50.0)


def test_delivery_arrival_requires_preceding_pickup():
    inst = single_pair_reference()
    pickup, delivery = _reference_pair(inst)
    with pytest.raises(WrongKind):
        replay_route(inst, 0.0, (pickup, delivery, delivery, pickup))


# ---------------------------------------------------------------------------
# Waiting and charging.
# ---------------------------------------------------------------------------

def test_waiting_delivery_parking_overlaps_window():
    # the delivery window opens at 180 and parking takes a minute: arriving
    # at 180 or 179 costs no waiting, arriving at 170 costs 9 minutes
    inst = single_pair_reference()
    waits = [propagate(inst, start, 0, _reference_pair(inst))[0][1][1]
             for start in (109.0, 108.0, 99.0)]
    assert waits == pytest.approx([0.0, 0.0, 9.0])


def test_waiting_pickup_full_wait():
    inst = single_pair_reference()
    early, _, _ = propagate(inst, 70.0, 0, _reference_pair(inst))
    late, _, _ = propagate(inst, 130.0, 0, _reference_pair(inst))
    assert early[0][:2] == pytest.approx((90.0, 10.0))
    assert late[0][:2] == pytest.approx((150.0, 0.0))


def test_charge_accrues_while_parked_and_caps_at_full():
    # half charged when the window opens at 100, full after 240 minutes
    inst = _with(single_pair_reference(), pickup={"battery": 0.5, "tw_max": 300.0})
    charges = [propagate(inst, start, 1, _reference_pair(inst))[0][0][2]
               for start in (100.0, 220.0, 160.0)]
    assert charges == pytest.approx([0.5, 1.0, 0.75])
    assert propagate(inst, 100.0, 1, _reference_pair(inst))[0][1][2] is None


# ---------------------------------------------------------------------------
# Construction screens.
# ---------------------------------------------------------------------------

def _at_depot(start):
    return Position(location=0, departure=start, start_time=start)


def _holding(pickup, location, departure, start=0.0):
    return Position(location=location, departure=departure, start_time=start, held=pickup)


def test_pickup_feasible_window_boundary_inclusive():
    inst = single_pair_reference()
    pickup, delivery = _reference_pair(inst)
    at_boundary = _at_depot(180.0)       # arrival exactly 200 == tw_max
    past_boundary = _at_depot(180.001)
    assert pickup_feasible(at_boundary, pickup, [delivery], inst)
    assert not pickup_feasible(past_boundary, pickup, [delivery], inst)


def test_pickup_without_candidate_deliveries_is_infeasible():
    inst = single_pair_reference()
    assert not pickup_feasible(_at_depot(80.0), inst.request(1), [], inst)


def _held_half_charged(target, **params):
    """A half-charged EV loaded at station 1 at 100 and driven 30 km to a
    delivery closing at 292; no loading time, so it arrives at 172."""
    parameters = Parameters(ev_speed=25.0, recharge_time=240.0, full_range=150.0,
                            load_time=0.0, **params)
    distances = (
        (0.0, 1.0, 30.5),
        (1.0, 0.0, 30.0),
        (30.5, 30.0, 0.0),
    )
    pickup = Request(id=1, kind=RequestKind.PICKUP, location=1, tw_min=100.0,
                     tw_max=300.0, battery=0.5, revenue=1.0)
    delivery = Request(id=2, kind=RequestKind.DELIVERY, location=2, tw_min=100.0,
                       tw_max=292.0, battery=target, revenue=1.0)
    inst = Instance(parameters=parameters, requests=(pickup, delivery), distances=distances)
    return inst, _holding(pickup, location=1, departure=100.0), delivery


def test_delivery_feasible_battery_recharge_window():
    # drive 30 km on a 150 km range starting from half charge: 0.2 spent;
    # half a full recharge fits before the window closes, so a 0.7 target
    # passes (0.3 + 0.5 >= 0.7) and a 0.81 target fails
    inst, position, delivery = _held_half_charged(0.7)
    # arrival = 100 + 30*60/25 = 172; slack = (292-172)/240 = 0.5
    assert delivery_feasible(position, delivery, inst)
    inst, position, delivery = _held_half_charged(0.81)
    assert not delivery_feasible(position, delivery, inst)


def test_delivery_leg_beyond_range_is_infeasible():
    params = Parameters(full_range=150.0)
    distances = (
        (0.0, 1.0, 160.0),
        (1.0, 0.0, 160.0),
        (160.0, 160.0, 0.0),
    )
    pickup = Request(id=1, kind=RequestKind.PICKUP, location=1, tw_min=0.0,
                     tw_max=100000.0, battery=1.0, revenue=1.0)
    target = Request(id=2, kind=RequestKind.DELIVERY, location=2, tw_min=0.0,
                     tw_max=100000.0, battery=0.0, revenue=1.0)
    inst = Instance(parameters=params, requests=(pickup, target), distances=distances)
    assert not delivery_feasible(_holding(pickup, location=1, departure=0.0), target, inst)


def test_delivery_zero_target_with_full_charge_is_feasible():
    inst = single_pair_reference()
    pickup, delivery = _reference_pair(inst)
    assert delivery_feasible(_holding(pickup, location=1, departure=128.0, start=108.0),
                             delivery, inst)


def test_delivery_feasible_requires_held_ev():
    inst = single_pair_reference()
    pickup, delivery = _reference_pair(inst)
    with pytest.raises(WrongKind):
        delivery_feasible(_at_depot(0.0), delivery, inst)
    with pytest.raises(WrongKind):
        delivery_feasible(_holding(pickup, location=1, departure=128.0), pickup, inst)
    assert select_next(None, [delivery], GreedyPolicy.NEAREST, inst) is None
    assert select_next(_at_depot(0.0), [delivery], GreedyPolicy.NEAREST, inst) is None


def test_pickup_feasible_refuses_a_held_ev():
    inst = single_pair_reference()
    pickup, delivery = _reference_pair(inst)
    with pytest.raises(WrongKind):
        pickup_feasible(_holding(pickup, location=1, departure=128.0), pickup, [delivery], inst)
    with pytest.raises(WrongKind):
        pickup_feasible(_at_depot(108.0), delivery, [delivery], inst)


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


def _duty_line_instance(duty_time):
    """Two pairs on stations 5 km from each other and from the depot: a ride
    at 15 km/h takes 20 minutes and a drive at 25 km/h 12.  Pickup 1 opens
    and closes at 20, so the route 1 2 3 4 leaves the depot at 0 and is back
    at exactly 88: three rides, two drives and four minutes of handling."""
    params = Parameters(duty_time=duty_time, ev_speed=25.0, bike_speed=15.0,
                        park_time=1.0, load_time=1.0, worker_count=1, worker_cost=0.0)
    windows = ((RequestKind.PICKUP, 20.0, 20.0), (RequestKind.DELIVERY, 0.0, 500.0),
               (RequestKind.PICKUP, 0.0, 500.0), (RequestKind.DELIVERY, 0.0, 500.0))
    requests = tuple(
        Request(id=i, kind=kind, location=i, tw_min=lo, tw_max=hi,
                battery=1.0 if kind is RequestKind.PICKUP else 0.0, revenue=20.0)
        for i, (kind, lo, hi) in enumerate(windows, start=1))
    distances = tuple(tuple(0.0 if i == j else 5.0 for j in range(5)) for i in range(5))
    return Instance(parameters=params, requests=requests, distances=distances)


@pytest.mark.parametrize("over, fits", [(0.5e-6, True), (2e-6, False)])
def test_every_judge_of_the_duty_line_agrees_at_its_tolerance(over, fits):
    # The two-pair route lasts duty_time + over: within EPS it fits.
    inst = _duty_line_instance(88.0 - over)
    p1, d1, p2, d2 = inst.requests
    route, failures = schedule_route(inst, 0.0, (p1, d1, p2, d2))
    assert route.duration == 88.0
    assert (failures == []) is fits
    assert validate_route(route, inst).ok is fits
    # Inserting the second pair after the first, or the first in front of
    # the second, lands the route there.
    assert _simulate_insertion(replay_route(inst, 0.0, (p1, d1)), 1, (p2, d2), inst)[0] is fits
    assert _simulate_insertion(replay_route(inst, 34.0, (p2, d2)), 0, (p1, d1), inst)[0] is fits
    served = solve_exact(inst, objective="requests").served
    assert served == ({1, 2, 3, 4} if fits else {1, 2})


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


def test_validate_route_reports_target_only_where_range_is_covered():
    # A drained EV misses both the leg and a 0.999 handover target by 185;
    # the kernel fails both conditions, the validator reports the range only.
    inst = _with(single_pair_reference(), pickup={"battery": 0.0},
                 delivery={"tw_max": 185.0, "battery": 0.999})
    route = replay_route(inst, 108.0, _reference_pair(inst))
    _, _, failures = propagate(inst, 108.0, 0, _reference_pair(inst))
    assert failures == [("battery_range", 1), ("battery_target", 1)]
    assert [(v.code, v.visit) for v in validate_route(route, inst).violations] == [
        ("battery_range", 1)]


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


def test_validate_route_fails_closed_on_a_nan_arrival():
    inst = single_pair_reference()
    route = _valid_route(inst)
    nan_visit = dataclasses.replace(route.visits[1], arrival=math.nan)
    result = validate_route(dataclasses.replace(route, visits=(route.visits[0], nan_visit)), inst)
    assert [(v.code, v.visit) for v in result.violations] == [("stored_schedule", 1)]


def test_validate_route_fails_closed_on_an_infinite_start():
    # Leaving at -inf makes the replayed pickup waiting infinite and every
    # later replayed value NaN, the end time included.
    inst = single_pair_reference()
    route = dataclasses.replace(_valid_route(inst), start_time=-math.inf)
    codes = {v.code for v in validate_route(route, inst).violations}
    assert {"end_time", "duty"} <= codes


def test_validate_route_rejects_an_all_nan_schedule():
    inst = single_pair_reference()
    nan = math.nan
    route = RouteSchedule(worker=0, start_time=nan, end_time=nan,
                          visits=(ScheduledVisit(1, nan, nan, nan), ScheduledVisit(2, nan, nan)))
    codes = [v.code for v in validate_route(route, inst).violations]
    assert codes[:4] == ["stored_schedule", "stored_schedule", "stored_schedule", "pickup_window"]
    assert "duty" in codes


def test_verdict_only_propagate_fails_closed_on_nan():
    inst = single_pair_reference()
    pair = _reference_pair(inst)
    assert propagate(inst, math.nan, 0, pair, verdict_only=True)[2] == [("pickup_window", 0)]
    nan_charge = (SimpleNamespace(**{**vars(pair[0]), "battery": math.nan}), pair[1])
    assert propagate(inst, 108.0, 0, nan_charge, verdict_only=True)[2] == [("battery_range", 1)]
    assert propagate(inst, 108.0, 0, nan_charge)[2][0] == ("battery_range", 1)


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

    stranger = dataclasses.replace(sol, served=sol.served | {99})
    codes = {v.code for v in validate_solution(stranger, inst).violations}
    assert "unknown_request" in codes


def test_validate_empty_solution_ok():
    inst = single_pair_reference()
    sol = assemble_solution([], inst)
    assert validate_solution(sol, inst).ok


@pytest.mark.parametrize("name", ALGORITHMS)
def test_every_solver_numbers_its_workers_as_the_validator_asks(name):
    for instance in small_instances(20, seed=0):
        for objective in ("profit", "requests"):
            solution, _ = run_algorithm(name, instance, objective)
            assert validate_solution(solution, instance).ok, (name, objective)


def _two_route_solution():
    """The first CH solution on ``small_instances(20)`` that uses two workers."""
    for instance in small_instances(20, seed=0):
        solution = run_ch(instance, objective="requests")
        if len(solution.routes) >= 2:
            return solution, instance
    raise AssertionError("no solution of two routes")


@pytest.mark.parametrize("route, worker, reported", [
    # No worker of the instance's ten.
    (0, 10, 0), (0, 99, 0), (1, -1, 1), (1, True, 1), (1, 1.0, 1),
    # The worker of another route: the later of the two is reported.
    (1, 0, 1), (0, 1, 1),
])
def test_validate_solution_checks_worker_ids(route, worker, reported):
    solution, instance = _two_route_solution()
    assert instance.parameters.worker_count == 10
    routes = list(solution.routes)
    routes[route] = dataclasses.replace(routes[route], worker=worker)
    result = validate_solution(dataclasses.replace(solution, routes=tuple(routes)), instance)
    assert [(v.code, v.route) for v in result.violations] == [("worker_id", reported)]


def test_validation_result_describe():
    inst = single_pair_reference()
    late = replay_route(inst, 190.0, (inst.request(1), inst.request(2)))
    result = validate_route(late, inst)
    text = result.describe()
    assert "pickup_window" in text
    assert not result.ok
    assert validate_route(_valid_route(inst), inst).describe() == "OK"


# ---------------------------------------------------------------------------
# Properties: randomly built routes and solutions replay cleanly.
# ---------------------------------------------------------------------------

_ODD = st.sampled_from([math.nan, math.inf, -math.inf])


@given(st.integers(min_value=0, max_value=10_000), st.data())
def test_verdict_only_propagate_stops_at_the_full_calls_first_failure(seed, data):
    # A random order of random length, some of its windows and charges
    # made NaN or infinite, walked from a random or non-finite departure:
    # the verdict-only walk fails exactly when the full walk does, with
    # the full walk's first failure, and its stops are the full walk's
    # first ones.
    rng = random.Random(seed)
    instance = synthetic_instance(rng)
    pairs = synthetic_pairs(instance)
    rng.shuffle(pairs)
    order = [SimpleNamespace(**vars(r)) for pair in pairs[:rng.randint(1, len(pairs))] for r in pair]
    for _ in range(data.draw(st.integers(min_value=0, max_value=3))):
        field = data.draw(st.sampled_from(["tw_min", "tw_max", "battery"]))
        setattr(data.draw(st.sampled_from(order)), field, data.draw(_ODD))
    dep = data.draw(st.one_of(st.floats(min_value=0.0, max_value=300.0), _ODD))
    stops, end, failures = propagate(instance, dep, 0, order)
    partial, partial_end, first = propagate(instance, dep, 0, order, verdict_only=True)
    assert first == failures[:1]
    assert repr(partial) == repr(stops[:len(partial)])
    if not failures:
        assert repr((partial, partial_end)) == repr((stops, end))


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
