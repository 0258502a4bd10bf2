"""Pair screening, urgency scores, preprocessing, first-pair timing, exact
insertion simulation, and the two insertion-based construction drivers."""

import dataclasses
import math
import random
from collections import Counter
from types import SimpleNamespace

import pytest
from hypothesis import given, strategies as st

from conftest import grow_route, single_pair_reference, synthetic_instance, synthetic_pairs, tight_windows
from evrelo import insertion
from evrelo.errors import GapOutOfRange, UnknownRequest
from evrelo.feasibility import schedule_route, validate_route, validate_solution
from evrelo.generator import make_benchmark, small_instances
from evrelo.insertion import (
    _EMPTY_ROUTE,
    InsertionCandidate,
    RhConfig,
    _Graph,
    _construct,
    _simulate_insertion,
    _orient,
    _urgency_order,
    apply_insertion,
    best_insertion,
    compatible_partners,
    critical_factor,
    init_first_pair,
    materialize_first_pair,
    pair_necessary_feasible,
    preprocess,
    run_ch,
    run_rh,
    time_extension,
)
from evrelo.model import (
    EPS,
    Instance,
    Parameters,
    Request,
    RequestKind,
    assemble_solution,
    paying_routes,
)


def _instance(requests, distances, **params):
    defaults = dict(ev_speed=24.0, worker_cost=30.0)
    defaults.update(params)
    return Instance(parameters=Parameters(**defaults), requests=tuple(requests),
                    distances=tuple(tuple(row) for row in distances))


def _line(requests, coords, **params):
    pts = [0.0] + list(coords)
    return _instance(requests, [[abs(a - b) for b in pts] for a in pts], **params)


def _pickup(id, location, tw, battery=1.0):
    return Request(id=id, kind=RequestKind.PICKUP, location=location,
                   tw_min=tw[0], tw_max=tw[1], battery=battery, revenue=20.0)


def _delivery(id, location, tw, battery=0.0):
    return Request(id=id, kind=RequestKind.DELIVERY, location=location,
                   tw_min=tw[0], tw_max=tw[1], battery=battery, revenue=20.0)


# ---------------------------------------------------------------------------
# Pair screening.
# ---------------------------------------------------------------------------

def _screen_pair(d_window, pd_km=20.0, depot_to_d=19.5, p_battery=1.0,
                 d_battery=0.0, **params):
    """One pickup at 1 km from the depot, one delivery ``pd_km`` away from it."""
    p = _pickup(1, 1, (100.0, 200.0), battery=p_battery)
    d = _delivery(2, 2, d_window, battery=d_battery)
    distances = [
        [0.0, 1.0, depot_to_d],
        [1.0, 0.0, pd_km],
        [depot_to_d, pd_km, 0.0],
    ]
    return p, d, _instance([p, d], distances, **params)


def test_pair_screen_delivery_window_boundary():
    # 100 + 50 min drive + both handling minutes = 152
    p, d, inst = _screen_pair((100.0, 152.0))
    assert pair_necessary_feasible(p, d, inst)
    p, d, inst = _screen_pair((100.0, 151.9))
    assert not pair_necessary_feasible(p, d, inst)


def test_pair_screen_battery_with_recharge_slack():
    # 0.5 - 30/150 + 120/240 = 0.8 against the hand-over target
    ok = _screen_pair((180.0, 300.0), pd_km=30.0, depot_to_d=30.5,
                      p_battery=0.5, d_battery=0.7)
    assert pair_necessary_feasible(*ok)
    bad = _screen_pair((180.0, 300.0), pd_km=30.0, depot_to_d=30.5,
                       p_battery=0.5, d_battery=0.81)
    assert not pair_necessary_feasible(*bad)


def test_pair_screen_leg_beyond_range_with_no_slack():
    # a 160 km leg on a 150 km range, zero-width window so nothing recharges
    bad = _screen_pair((502.0, 502.0), pd_km=160.0, depot_to_d=160.5,
                       duty_time=2000.0)
    assert not pair_necessary_feasible(*bad)
    # a roomier range is the only thing that changes the verdict
    ok = _screen_pair((502.0, 502.0), pd_km=160.0, depot_to_d=160.5,
                      duty_time=2000.0, full_range=400.0)
    assert pair_necessary_feasible(*ok)


def test_pair_screen_duty_boundary():
    # approach 4, return 78, drive-plus-load 51, final park 1: tour 134
    p, d, inst = _screen_pair((180.0, 300.0), duty_time=134.0)
    assert pair_necessary_feasible(p, d, inst)
    p, d, inst = _screen_pair((180.0, 300.0), duty_time=133.9)
    assert not pair_necessary_feasible(p, d, inst)


@pytest.mark.xfail(strict=True, reason="the delivery-window screen adds park_time "
                   "the validator does not (ROADMAP item 2)")
def test_pair_screen_keeps_a_pair_whose_route_validates():
    # Arrival at the delivery is 10 + 1 + 10 = 21 <= 21.5, but the screen
    # also adds the 1 minute of parking.
    p = _pickup(1, 1, (10.0, 10.0))
    d = _delivery(2, 2, (0.0, 21.5))
    inst = _instance([p, d], [[0.0, 10.0, 10.0], [10.0, 0.0, 10.0], [10.0, 10.0, 0.0]],
                     ev_speed=60.0, bike_speed=60.0, worker_cost=0.0)
    route = materialize_first_pair(p, d, inst)
    assert pair_necessary_feasible(p, d, inst) or not validate_route(route, inst).ok


# ---------------------------------------------------------------------------
# Urgency scores and preprocessing.
# ---------------------------------------------------------------------------

def _pickup_subject_instance():
    """A pickup opening at 100 with partners 50 and 30 driving minutes away,
    closing at 300 and 260."""
    p = _pickup(1, 1, (100.0, 200.0))
    d1 = _delivery(2, 2, (180.0, 300.0))
    d2 = _delivery(4, 3, (150.0, 260.0))
    distances = [
        [0.0, 1.0, 19.5, 11.5],
        [1.0, 0.0, 20.0, 12.0],
        [19.5, 20.0, 0.0, 9.0],
        [11.5, 12.0, 9.0, 0.0],
    ]
    return p, d1, d2, _instance([p, d1, d2], distances)


def test_urgency_score_of_pickup():
    p, d1, d2, inst = _pickup_subject_instance()
    assert critical_factor(p, [d1, d2], inst) == pytest.approx(150.0)


def test_urgency_score_of_delivery():
    # closing at 300 against earliest hand-overs 150 and 160
    d = _delivery(2, 1, (150.0, 300.0))
    p1 = _pickup(1, 2, (100.0, 200.0))
    p2 = _pickup(3, 3, (90.0, 200.0))
    distances = [
        [0.0, 1.0, 19.5, 27.5],
        [1.0, 0.0, 20.0, 28.0],
        [19.5, 20.0, 0.0, 9.0],
        [27.5, 28.0, 9.0, 0.0],
    ]
    inst = _instance([d, p1, p2], distances)
    assert critical_factor(d, [p1, p2], inst) == pytest.approx(150.0)


def test_urgency_score_uncoupled_is_negative():
    p, d1, d2, inst = _pickup_subject_instance()
    assert critical_factor(p, [], inst) == float("-inf")
    assert critical_factor(p, [d1, d2], inst) >= 0.0


def test_compatible_partners_sorted_by_parking_distance():
    p, d1, d2, inst = _pickup_subject_instance()
    partners = compatible_partners(inst)
    assert [d.id for d in partners[1]] == [4, 2]
    assert [q.id for q in partners[2]] == [1]
    assert [q.id for q in partners[4]] == [1]


def test_compatible_partners_screen_each_pair_once(monkeypatch):
    screened = []
    screen = insertion.pair_necessary_feasible
    monkeypatch.setattr(insertion, "pair_necessary_feasible",
                        lambda p, d, inst: screened.append((p.id, d.id)) or screen(p, d, inst))
    instance = make_benchmark("vamat_like", 30, seed=0)[19]
    partners = compatible_partners(instance)
    assert len(screened) == len(set(screened)) == len(instance.pickups) * len(instance.deliveries)
    # _construct relies on the relation being symmetric.
    for rid, reqs in partners.items():
        assert all(rid in {r.id for r in partners[q.id]} for q in reqs)
    assert sum(map(len, partners.values())) > 0


def _crowded_pickups(pickup_opens, delivery_windows):
    """All pickups on one station 1 km out, all deliveries 10 km further."""
    requests = [
        _pickup(2 * i + 1, 1, (open_, 200.0)) for i, open_ in enumerate(pickup_opens)
    ] + [
        _delivery(2 * j + 2, 2, window) for j, window in enumerate(delivery_windows)
    ]
    return _line(requests, coords=[1.0, 11.0])


def test_preprocess_balanced_compatible_input_untouched():
    inst = single_pair_reference()
    retained, rejected = preprocess(inst, compatible_partners(inst))
    assert [r.id for r in retained] == [1, 2]
    assert rejected == ()


def test_preprocess_trims_surplus_side_by_urgency():
    # five pickups, three deliveries: the two latest-opening pickups carry
    # the smallest urgency scores and are dropped
    inst = _crowded_pickups([60.0, 70.0, 80.0, 90.0, 100.0],
                            [(150.0, 280.0)] * 3)
    retained, rejected = preprocess(inst, compatible_partners(inst))
    assert [r.id for r in rejected] == [7, 9]
    assert [r.id for r in retained] == [1, 2, 3, 4, 5, 6]


def test_preprocess_purges_uncoupled_then_rebalances():
    # the third delivery closes before any pickup can reach it, so it is
    # purged; the then-surplus pickup of lowest score follows
    inst = _crowded_pickups([60.0, 70.0, 80.0],
                            [(150.0, 280.0), (150.0, 280.0), (0.0, 80.0)])
    retained, rejected = preprocess(inst, compatible_partners(inst))
    assert [r.id for r in rejected] == [5, 6]
    assert [r.id for r in retained] == [1, 2, 3, 4]


# ---------------------------------------------------------------------------
# First-pair timing.
# ---------------------------------------------------------------------------

def test_first_pair_reference_timing():
    inst = single_pair_reference()
    timing = init_first_pair(inst.request(1), inst.request(2), inst)
    assert timing.completion_time == pytest.approx(180.0)
    assert timing.pickup_arrival == pytest.approx(128.0)
    assert timing.pickup_waiting == 0.0
    assert timing.delivery_arrival == pytest.approx(180.0)
    assert timing.delivery_waiting == pytest.approx(0.0)
    assert timing.start_time == pytest.approx(108.0)


def test_first_pair_early_delivery_window_arrives_at_opening():
    inst = single_pair_reference()
    early = dataclasses.replace(inst.request(2), tw_min=0.0)
    timing = init_first_pair(inst.request(1), early, inst)
    assert timing.pickup_arrival == pytest.approx(100.0)
    assert timing.delivery_waiting == pytest.approx(0.0)


def test_first_pair_late_delivery_window_forces_residual_wait():
    inst = single_pair_reference()
    late = dataclasses.replace(inst.request(2), tw_min=260.0)
    timing = init_first_pair(inst.request(1), late, inst)
    assert timing.pickup_arrival == pytest.approx(200.0)  # pickup closing
    assert timing.delivery_waiting == pytest.approx(8.0)
    patched = dataclasses.replace(
        inst, requests=(inst.request(1), late))
    route = materialize_first_pair(patched.request(1), patched.request(2), patched)
    assert validate_route(route, patched).ok
    assert route.end_time == pytest.approx(332.0)


def test_materialize_first_pair_matches_reference_schedule():
    inst = single_pair_reference()
    route = materialize_first_pair(inst.request(1), inst.request(2), inst)
    assert route.start_time == pytest.approx(108.0)
    assert [v.arrival for v in route.visits] == pytest.approx([128.0, 179.0])
    assert route.end_time == pytest.approx(252.0)
    assert validate_route(route, inst).ok


# ---------------------------------------------------------------------------
# Insertion simulation.
# ---------------------------------------------------------------------------

def _coincident_instance(park, load, second_open):
    """Four served requests plus one spare pair, all on a single station
    1 km from the depot: every EV leg is instantaneous, so durations are
    pure handling and waiting."""
    big = 10_000.0
    requests = [
        _pickup(1, 1, (10.0, big)),
        _delivery(2, 1, (0.0, big)),
        _pickup(3, 1, (second_open, big)),
        _delivery(4, 1, (0.0, big)),
        _pickup(5, 1, (0.0, big)),
        _delivery(6, 1, (0.0, big)),
    ]
    inst = _line(requests, coords=[1.0], park_time=park, load_time=load)
    from evrelo.feasibility import replay_route, route_start
    route = replay_route(inst, route_start(inst, inst.request(1), 10.0),
                         tuple(inst.request(i) for i in (1, 2, 3, 4)))
    return inst, route, (inst.request(5), inst.request(6))


def test_time_extension_absorbed_by_downstream_waiting():
    inst, route, pair = _coincident_instance(park=1.0, load=1.0, second_open=50.0)
    assert route.duration == pytest.approx(50.0)
    assert time_extension(route, 1, pair, inst) == pytest.approx(0.0)
    assert _simulate_insertion(route, 1, pair, inst)[0]
    widened = apply_insertion(route, 1, pair, inst)
    assert widened.request_ids == (1, 2, 5, 6, 3, 4)
    assert widened.duration == pytest.approx(route.duration)
    assert widened.end_time == pytest.approx(route.end_time)
    assert validate_route(widened, inst).ok


def test_time_extension_bare_handling_cost_without_waiting():
    # fifteen-minute park and load times, nothing downstream can absorb:
    # the inserted pair costs exactly one load plus one park
    inst, route, pair = _coincident_instance(park=15.0, load=15.0, second_open=0.0)
    assert route.duration == pytest.approx(68.0)
    assert time_extension(route, 1, pair, inst) == pytest.approx(30.0)
    applied = apply_insertion(route, 1, pair, inst)
    assert applied.duration == pytest.approx(98.0)
    assert validate_route(applied, inst).ok


def test_insertion_infeasible_on_zero_duty_budget():
    inst, route, pair = _coincident_instance(park=15.0, load=15.0, second_open=0.0)
    snug = dataclasses.replace(inst, parameters=dataclasses.replace(
        inst.parameters, duty_time=route.duration))
    assert not _simulate_insertion(route, 1, pair, snug)[0]
    # the duration change itself is still reported
    assert time_extension(route, 1, pair, snug) == pytest.approx(30.0)


def test_insertion_feasible_with_slack_everywhere():
    inst, route, pair = _coincident_instance(park=1.0, load=1.0, second_open=50.0)
    assert all(_simulate_insertion(route, gap, pair, inst)[0] for gap in (0, 1, 2))


def test_gap_out_of_range():
    inst, route, pair = _coincident_instance(park=1.0, load=1.0, second_open=50.0)
    with pytest.raises(GapOutOfRange):
        time_extension(route, 3, pair, inst)
    with pytest.raises(GapOutOfRange):
        apply_insertion(route, -1, pair, inst)


def test_simulation_names_an_unknown_request():
    inst, route, pair = _coincident_instance(park=1.0, load=1.0, second_open=50.0)
    # the route serves requests 3 and 4, which this instance lacks
    stranger = dataclasses.replace(
        inst, requests=tuple(inst.request(i) for i in (1, 2, 5, 6)))
    for gap in (0, 1, 2):
        with pytest.raises(UnknownRequest):
            time_extension(route, gap, pair, stranger)
        with pytest.raises(UnknownRequest):
            _simulate_insertion(route, gap, pair, stranger)
        with pytest.raises(UnknownRequest):
            apply_insertion(route, gap, pair, stranger)


def test_best_insertion_minimal_extension():
    inst, route, pair = _coincident_instance(park=1.0, load=1.0, second_open=50.0)
    best = best_insertion(route, pair, inst)
    assert best is not None
    assert best.gap == 1
    assert best.time_extension == pytest.approx(0.0)
    assert (best.pickup_id, best.delivery_id) == (5, 6)


def test_best_insertion_breaks_ties_toward_earliest_gap():
    inst, route, pair = _coincident_instance(park=1.0, load=1.0, second_open=0.0)
    # gaps 1 and 2 both cost two handling minutes; gap 0 costs ten
    assert time_extension(route, 1, pair, inst) == pytest.approx(2.0)
    assert time_extension(route, 2, pair, inst) == pytest.approx(2.0)
    assert best_insertion(route, pair, inst).gap == 1


def test_best_insertion_none_when_no_gap_fits():
    inst, route, pair = _coincident_instance(park=15.0, load=15.0, second_open=0.0)
    snug = dataclasses.replace(inst, parameters=dataclasses.replace(
        inst.parameters, duty_time=route.duration))
    assert best_insertion(route, pair, snug) is None


def _pair_attempt(first, pickup, delivery, far=None):
    """Every request on one station a 4-minute ride from the depot, except
    request ``far`` (5 or 6, if given), on a second one 4 minutes further
    and a 2.5-minute EV leg away; one minute to load and one to park.  The
    route serves (1, 2) then (3, 4): it reaches pickup 1 at 0 and leaves its
    two pairs at 2 and 4.  The pair (5, 6) is the one to insert; the
    windows of 1, 5 and 6 are given."""
    big = 10_000.0
    requests = [
        _pickup(1, 1, first), _delivery(2, 2, (0.0, big)),
        _pickup(3, 3, (0.0, big)), _delivery(4, 4, (0.0, big)),
        _pickup(5, 5, pickup), _delivery(6, 6, delivery),
    ]
    inst = _line(requests, coords=[2.0 if r.id == far else 1.0 for r in requests],
                 park_time=1.0, load_time=1.0)
    route, failures = schedule_route(inst, -4.0, [inst.request(i) for i in (1, 2, 3, 4)])
    assert failures == [] and [v.arrival for v in route.visits] == [0.0, 1.0, 2.0, 3.0]
    return inst, route, (inst.request(5), inst.request(6))


def test_a_blocked_attempt_walks_nothing(monkeypatch):
    # Gap 0 fails at the route's first pickup (reached at 2 from the pair's
    # head, closing at 1) and gap 1 already departs after the pair's pickup
    # closes, so the two cuts decide the attempt.
    inst, route, pair = _pair_attempt((0.0, 1.0), (0.0, 1.5), (0.0, 10_000.0))
    head = insertion._pair_head(pair, inst)
    assert head[3] and head[2] == 2.0
    assert not any(_simulate_insertion(route, gap, pair, inst)[0] for gap in (0, 1, 2))
    walks = []
    propagate = insertion.propagate
    monkeypatch.setattr(insertion, "propagate", lambda *args, **kwargs: walks.append(args) or propagate(*args, **kwargs))
    assert best_insertion(route, pair, inst, head) is None
    assert walks == []
    # Without the head, its one walk is the only one.
    assert best_insertion(route, pair, inst) is None
    assert len(walks) == 1 and walks[0][1:3] == (head[0], 0)


def test_the_gap_scan_reads_no_departure_past_the_first_late_one(monkeypatch):
    # On a replay a departure past the first late one is late too, so the
    # scan stops there.  Here the stored departure of gap 2 is moved to 1,
    # inside the pair's pickup window (it closes at 1.5): on a route that
    # is no replay, the gap past the cut is left unread, and its fit
    # missed, rather than walked.
    inst, route, pair = _pair_attempt((0.0, 1.0), (0.0, 1.5), (0.0, 10_000.0))
    visits = list(route.visits)
    visits[3] = dataclasses.replace(visits[3], arrival=0.0, waiting=0.0)
    early = dataclasses.replace(route, visits=tuple(visits))
    assert _simulate_insertion(early, 2, pair, inst)[0]
    head = insertion._pair_head(pair, inst)
    walks = []
    propagate = insertion.propagate
    monkeypatch.setattr(insertion, "propagate", lambda *args, **kwargs: walks.append(args) or propagate(*args, **kwargs))
    assert best_insertion(early, pair, inst, head) is None
    assert walks == []


@pytest.mark.parametrize("gap, windows, far", [
    # From the head the route's first pickup is reached at 4.5, half a
    # tolerance past its closing; the pickup 5 a ride away would not be.
    (0, ((0.0, 4.5 - EPS / 2), (0.0, 0.5), (0.0, 10_000.0)), 5),
    # Gap 1 departs at 2 and, with the load and the EV leg, hands over at
    # 5.5: both half a tolerance past the pair's closings.
    (1, ((0.0, 0.5), (0.0, 2.0 - EPS / 2), (0.0, 5.5 - EPS / 2)), 6),
])
def test_a_gap_on_a_cuts_boundary_is_walked(gap, windows, far):
    # The one feasible gap sits on the comparison its cut makes, which
    # passes only with propagate's ``<=``, EPS and operands.
    inst, route, pair = _pair_attempt(*windows, far=far)
    assert [_simulate_insertion(route, g, pair, inst)[0] for g in (0, 1, 2)] == [g == gap for g in (0, 1, 2)]
    best = best_insertion(route, pair, inst)
    assert best.gap == gap and best == _gap_scan(route, pair, inst)


# ---------------------------------------------------------------------------
# Construction drivers.
# ---------------------------------------------------------------------------

def test_ch_single_pair_route():
    inst = single_pair_reference()
    solution = run_ch(inst, objective="profit")
    assert [r.request_ids for r in solution.routes] == [(1, 2)]
    assert solution.routes[0].start_time == pytest.approx(108.0)
    assert solution.profit == pytest.approx(10.0)
    assert validate_solution(solution, inst).ok


def test_ch_rejects_starved_requests_and_continues():
    # the tight delivery pairs with the nearest pickup; that choice starves
    # both the far pickup (whose only partner it was) and the late delivery
    # only the near pickup could have reached
    p_near = _pickup(1, 1, (60.0, 200.0))
    d_tight = _delivery(2, 2, (0.0, 90.0))
    p_far = _pickup(3, 3, (50.0, 200.0), battery=0.3)
    d_late = _delivery(4, 4, (250.0, 300.0), battery=0.9)
    inst = _line([p_near, d_tight, p_far, d_late], coords=[1.0, 2.0, 4.0, 6.0])
    partners = compatible_partners(inst)
    assert [d.id for d in partners[1]] == [2, 4]
    assert [p.id for p in partners[2]] == [1, 3]
    assert [d.id for d in partners[3]] == [2]
    assert [p.id for p in partners[4]] == [1]
    solution = run_ch(inst, objective="requests")
    assert [r.request_ids for r in solution.routes] == [(1, 2)]
    assert solution.rejected == frozenset({3, 4})
    assert validate_solution(solution, inst).ok


def test_ch_rejects_unknown_objective():
    with pytest.raises(ValueError):
        run_ch(single_pair_reference(), objective="fastest")


def test_rh_config_validation():
    with pytest.raises(ValueError):
        RhConfig(iterations=0)
    # Not an integer: 2.5 would fail inside run_rh and True run one iteration.
    for iterations in (2.5, 3.0, True, "3", None):
        with pytest.raises(ValueError, match="iterations must be an integer"):
            RhConfig(iterations=iterations)
    # A bool would run as seed 0 or 1, a float seed every iteration's generator.
    for seed in (True, False, 0.5, 2.0, "1", None):
        with pytest.raises(ValueError, match="seed must be an integer"):
            RhConfig(seed=seed)
    with pytest.raises(ValueError):
        RhConfig(objective="fastest")


def test_rh_single_iteration_is_validator_clean():
    rng = random.Random(7)
    inst = synthetic_instance(rng)
    solution = run_rh(inst, RhConfig(iterations=1, seed=3, objective="requests"))
    assert validate_solution(solution, inst).ok


def test_rh_deterministic_for_seed():
    rng = random.Random(11)
    inst = synthetic_instance(rng)
    cfg = RhConfig(iterations=25, seed=5, objective="requests")
    assert run_rh(inst, cfg) == run_rh(inst, cfg)


def test_rh_value_never_degrades_with_more_iterations():
    rng = random.Random(13)
    inst = synthetic_instance(rng)
    few = run_rh(inst, RhConfig(iterations=1, seed=2, objective="requests"))
    many = run_rh(inst, RhConfig(iterations=16, seed=2, objective="requests"))
    assert len(many.served) >= len(few.served)


def _rh_every_iteration(instance, config):
    """(value, solution, draws) of each RH iteration, every construction built."""
    partners = compatible_partners(instance)
    retained, _ = preprocess(instance, partners)
    for i in range(config.iterations):
        rng = random.Random(config.seed * 1_000_003 + i)
        draws = []

        def pick(left, state):
            draws.append(rng.randrange(len(left)))
            return left[draws[-1]]

        routes, _ = _construct(_Graph(instance, retained, partners), pick)
        if config.objective == "profit":
            routes = paying_routes(routes, instance)
        solution = assemble_solution(routes, instance)
        value = solution.profit if config.objective == "profit" else len(solution.served)
        yield value, solution, tuple(draws)


def _rh_reference(instance, config):
    """The plain best-of-many loop: the first iteration of the best value."""
    best = None
    for value, solution, _ in _rh_every_iteration(instance, config):
        if best is None or value > best[0]:
            best = (value, solution)
    return best[1]


# The small fleet and the amat_like instance find their best value in the
# first iteration.  The one-worker synthetic instances find it after dozens
# of iterations, most of them repeats of an earlier draw sequence; the
# two-worker one makes 15-29 draws per construction and repeats none.
RH_CONTRACT_FLEET = (
    *small_instances(10, seed=0),
    make_benchmark("amat_like", 2, seed=0)[1],
    synthetic_instance(random.Random(28), n_pairs=3,
                       params=Parameters(worker_count=1, duty_time=250.0)),
    synthetic_instance(random.Random(61), n_pairs=3,
                       params=Parameters(worker_count=1, duty_time=150.0)),
    synthetic_instance(random.Random(44), params=Parameters(worker_count=2, duty_time=200.0)),
)


def _construct_full_scan(instance, retained, partners, choose, worker_limit):
    """``_construct`` as it was before it counted live partners: every step
    rescans the whole partner list of every unserved request."""
    unserved = {r.id: r for r in retained}
    rejected = []
    routes = []
    current = None
    blocked = set()
    while True:
        for rid in list(unserved):
            req = unserved[rid]
            if not any(pid in unserved for pid in (p.id for p in partners[rid])):
                rejected.append(req)
                del unserved[rid]
                blocked.discard(rid)
        candidates = [rid for rid in sorted(unserved) if rid not in blocked]
        if not candidates:
            if current is not None:
                routes.append(current)
                current = None
                blocked.clear()
                if len(routes) < worker_limit and unserved:
                    continue
            break
        rid = choose(candidates, SimpleNamespace(unserved=unserved, current=current, routes=tuple(routes)))
        request = unserved[rid]
        partner = next(p for p in partners[rid] if p.id in unserved)
        pickup, delivery = _orient(request, partner)
        placed = None
        if current is None:
            attempt = materialize_first_pair(pickup, delivery, instance)
            if validate_route(attempt, instance).ok:
                placed = attempt
        else:
            candidate = best_insertion(current, (pickup, delivery), instance)
            if candidate is not None:
                placed = apply_insertion(current, candidate.gap, (pickup, delivery), instance)
        if placed is None:
            blocked.add(rid)
            continue
        current = placed
        del unserved[pickup.id]
        del unserved[delivery.id]
        blocked.clear()
    if current is not None:
        routes.append(current)
    rejected.extend(unserved.values())
    return routes, sorted(rejected, key=lambda r: r.id)


def _seeded_picker(seed):
    rng = random.Random(seed)
    return lambda left, state: left[rng.randrange(len(left))]


def _pickers():
    """Picker makers, each called with the graph walked: the urgency
    picker and four seeded draws."""
    return [_urgency_order, *(lambda graph, seed=seed: _seeded_picker(seed) for seed in range(4))]


def _with_workers(instance, count):
    return dataclasses.replace(instance, parameters=dataclasses.replace(
        instance.parameters, worker_count=count))


def test_construct_matches_the_full_partner_scan():
    vamat = make_benchmark("vamat_like", 30, seed=0)
    # On these two, placing a pair often leaves requests without a partner,
    # several at once on the first; on the small fleet that never happens.
    for instance in (*RH_CONTRACT_FLEET, vamat[0], vamat[19]):
        partners = compatible_partners(instance)
        # Every request preprocess keeps has a partner; the whole request
        # list also has some without one from the start.
        everyone = tuple(sorted(instance.requests, key=lambda r: r.id))
        for retained in (preprocess(instance, partners)[0], everyone):
            for make_picker in _pickers():
                for limit in (1, instance.parameters.worker_count):
                    graph = _Graph(_with_workers(instance, limit), retained, partners)
                    routes, rejected = _construct(graph, make_picker(graph))
                    assert (routes, rejected) == _construct_full_scan(
                        instance, retained, partners, make_picker(graph), limit)


def test_a_route_opens_by_insertion_into_the_empty_route():
    # Every compatible pair opens a feasible route on these instances, so
    # the incompatible pairs are tried as well, for infeasible verdicts.
    vamat = make_benchmark("vamat_like", 30, seed=0)
    verdicts = set()
    for instance in (*RH_CONTRACT_FLEET, vamat[0], vamat[19]):
        for pickup in instance.pickups:
            for delivery in instance.deliveries:
                pair = (pickup, delivery)
                feasible = best_insertion(_EMPTY_ROUTE, pair, instance) is not None
                route = apply_insertion(_EMPTY_ROUTE, 0, pair, instance)
                start = init_first_pair(pickup, delivery, instance).start_time
                assert route == schedule_route(instance, start, pair)[0]
                assert feasible == validate_route(route, instance).ok
                verdicts.add(feasible)
    assert verdicts == {True, False}


@pytest.mark.parametrize("node_cap", [None, 3])
def test_rh_equals_building_every_iteration(node_cap, monkeypatch):
    # A cap of 3 nodes fills the trie on the first construction of any
    # instance that draws more than twice, so the full-trie path runs.
    if node_cap is not None:
        monkeypatch.setattr(insertion, "_GRAPH_CAP", node_cap)
    for instance in RH_CONTRACT_FLEET:
        for objective in ("profit", "requests"):
            for seed in (0, 1):
                config = RhConfig(iterations=200, seed=seed, objective=objective)
                assert run_rh(instance, config) == _rh_reference(instance, config)


def test_rh_earliest_of_tied_iterations_wins():
    # One worker, duty time for one pair only: every construction serves
    # exactly one of the two pairs, so all iterations tie on both objectives.
    inst = _line(
        [_pickup(1, 1, (0.0, 500.0)), _delivery(2, 2, (0.0, 500.0)),
         _pickup(3, 3, (0.0, 500.0)), _delivery(4, 4, (0.0, 500.0))],
        coords=[10.0, 11.0, -10.0, -11.0], duty_time=120.0, worker_count=1,
    )
    for objective in ("profit", "requests"):
        config = RhConfig(iterations=20, seed=4, objective=objective)
        runs = list(_rh_every_iteration(inst, config))
        assert len({value for value, _, _ in runs}) == 1
        assert len({solution.served for _, solution, _ in runs}) == 2
        assert run_rh(inst, config) == runs[0][1]


def _rh_edges(instance, config):
    """(entries, offered, routes) of each RH iteration, every construction
    built.

    A state is the construction at a pick with nothing blocked: its closed
    routes and its open route, each as (start time, visit order).  An
    attempt is named by the last state and the request tried; the route
    close after every candidate was blocked, by the state and None.
    ``offered`` maps each state to its number of candidates."""
    partners = compatible_partners(instance)
    retained, _ = preprocess(instance, partners)
    for i in range(config.iterations):
        rng = random.Random(config.seed * 1_000_003 + i)
        edges, offered = [], {}

        def pick(candidates, at):
            unserved, current, routes = at.unserved, at.current, at.routes
            state = edges[-1][0] if edges else None
            if len(candidates) == len(unserved):
                if current is None and routes:
                    edges.append((state, None))
                state = (tuple((r.start_time, r.request_ids) for r in routes),
                         None if current is None else (current.start_time, current.request_ids))
                offered[state] = len(candidates)
            edges.append((state, candidates[rng.randrange(len(candidates))]))
            return edges[-1][1]

        routes, _ = _construct(_Graph(instance, retained, partners), pick)
        if edges and not any(edges[-1][1] in r.request_ids for r in routes):
            edges.append((edges[-1][0], None))
        yield edges, offered, tuple(routes)


def _count_rh_work(monkeypatch):
    """Patch RH to log each ``_construct`` call it makes (one per iteration
    run) and, for each iteration it scores, the index of that iteration."""
    walks, built = [], []
    construct = insertion._construct
    monkeypatch.setattr(insertion, "_construct",
                        lambda *args: walks.append(args[0]) or construct(*args))
    assemble = insertion.assemble_solution
    monkeypatch.setattr(insertion, "assemble_solution",
                        lambda *args: built.append(len(walks) - 1) or assemble(*args))
    return walks, built


def test_rh_builds_the_iterations_that_reach_an_unseen_edge(monkeypatch):
    # The graph does not depend on the objective, so one suffices.  It
    # stops after the iteration that leaves no candidate of a state reached
    # untried, and scores the first iteration of each construction.
    config = RhConfig(iterations=200, seed=0, objective="profit")
    walks, built = _count_rh_work(monkeypatch)
    for instance in RH_CONTRACT_FLEET:
        seen, firsts, states = set(), {}, {}
        for i, (edges, offered, routes) in enumerate(_rh_edges(instance, config)):
            firsts.setdefault(routes, i)
            seen.update(edges)
            states.update(offered)
            if sum(states.values()) == sum(rid is not None for _, rid in seen):
                break
        sequences = {draws for _, _, draws in _rh_every_iteration(instance, config)}
        walks.clear()
        built.clear()
        run_rh(instance, config)
        assert built == list(firsts.values())
        assert len(walks) == i + 1
        assert len(built) <= len(sequences)
    # Two workers, 15-29 draws per construction: every iteration draws a
    # new sequence, yet few build a construction not built before.
    assert len(built) < len(sequences) == config.iterations


def test_rh_stops_once_every_draw_is_taken(monkeypatch):
    walks, _ = _count_rh_work(monkeypatch)
    for instance in small_instances(100, seed=0):
        for objective in ("profit", "requests"):
            walks.clear()
            run_rh(instance, RhConfig(iterations=10_000, seed=0, objective=objective))
            assert len(walks) < 10_000


# Iterations ``run_rh`` runs on each RH_CONTRACT_FLEET instance, for the
# objectives profit and requests and the seeds 0 and 1 in turn, at 200
# iterations: where each solve stops once its draws can reach nothing new.
RH_CONTRACT_STOPS = (
    1, 1, 1, 1, 88, 148, 88, 148, 2, 7, 2, 7, 2, 7, 2, 7, 2, 7, 2, 7,
    1, 1, 1, 1, 2, 7, 2, 7, 2, 7, 2, 7, 2, 7, 2, 7, 10, 27, 10, 27,
    1, 1, 1, 1, 65, 72, 65, 72, 44, 109, 44, 109, 200, 200, 200, 200,
)


def test_rh_stops_where_it_always_stopped(monkeypatch):
    walks, _ = _count_rh_work(monkeypatch)
    stops = []
    for instance in RH_CONTRACT_FLEET:
        for objective in ("profit", "requests"):
            for seed in (0, 1):
                walks.clear()
                run_rh(instance, RhConfig(iterations=200, seed=seed, objective=objective))
                stops.append(len(walks))
    assert tuple(stops) == RH_CONTRACT_STOPS


def test_rh_runs_every_iteration_once_the_graph_is_full(monkeypatch):
    # These hold more than three requests, so no state fits a cap of 3.
    monkeypatch.setattr(insertion, "_GRAPH_CAP", 3)
    walks, _ = _count_rh_work(monkeypatch)
    for instance in RH_CONTRACT_FLEET[-3:]:
        config = RhConfig(iterations=200, seed=0, objective="profit")
        walks.clear()
        solution = run_rh(instance, config)
        assert len(walks) == config.iterations
        assert walks[0].refused
        assert solution == _rh_reference(instance, config)


def test_a_node_the_cap_refuses_keeps_the_graph_open(monkeypatch):
    # Two workers with duty time for one pair each: a route closes after its
    # first pair.  Once the start state (2 + 4 * 4) and a state after a first
    # placement (2 + 4 * 2) are held, a cap of 38 leaves no room for a state
    # after a close (3 + 4 * 2), so RH runs every iteration.
    inst = _line(
        [_pickup(1, 1, (0.0, 500.0)), _delivery(2, 2, (0.0, 500.0)),
         _pickup(3, 3, (0.0, 500.0)), _delivery(4, 4, (0.0, 500.0))],
        coords=[10.0, 11.0, -10.0, -11.0], duty_time=120.0, worker_count=2,
    )
    monkeypatch.setattr(insertion, "_GRAPH_CAP", 38)
    walks, _ = _count_rh_work(monkeypatch)
    config = RhConfig(iterations=50, seed=0, objective="requests")
    solution = run_rh(inst, config)
    graph = walks[0]
    assert all(g is graph for g in walks)
    after_close = [key for key in graph.states if len(key) == 2 and key[0] and key[1] is None]
    assert graph.refused and not after_close
    assert len(walks) == config.iterations
    assert len(solution.served) == 4
    assert solution == _rh_reference(inst, config)


def test_construct_shares_one_attempt_record_across_pickers():
    # One graph met by the urgency picker and seeded ones, as RH's
    # iterations meet theirs, each picker twice: every construction equals
    # the one a fresh graph gives, workers and rejected requests included.
    vamat = make_benchmark("vamat_like", 30, seed=0)
    for instance in (*RH_CONTRACT_FLEET, vamat[0], vamat[19]):
        partners = compatible_partners(instance)
        retained, _ = preprocess(instance, partners)
        for limit in (1, instance.parameters.worker_count):
            limited = _with_workers(instance, limit)
            shared = _Graph(limited, retained, partners)
            for make_picker in _pickers() * 2:
                fresh = _Graph(limited, retained, partners)
                assert _construct(shared, make_picker(shared)) == _construct(fresh, make_picker(fresh))


@pytest.mark.parametrize("cap", [None, 5])
def test_rh_evaluates_each_attempt_once(cap, monkeypatch):
    # Evaluations are logged by attempt key, an opening (an insertion into
    # the empty route) under no open route.  The record holds the first
    # ``cap`` keys evaluated, and none of those is evaluated twice.
    if cap is not None:
        monkeypatch.setattr(insertion, "_GRAPH_CAP", cap)
    cap = insertion._GRAPH_CAP
    records, evaluated = [], []
    construct, best = insertion._construct, insertion.best_insertion
    monkeypatch.setattr(insertion, "_construct",
                        lambda *args: records.append(args[0]) or construct(*args))
    monkeypatch.setattr(insertion, "best_insertion", lambda route, pair, instance, opening: evaluated.append(
        (None if route is _EMPTY_ROUTE else (route.start_time, route.request_ids),
         pair[0].id, pair[1].id))
        or best(route, pair, instance, opening))
    for instance in RH_CONTRACT_FLEET:
        solves = []
        for objective in ("profit", "requests"):
            records.clear()
            evaluated.clear()
            run_rh(instance, RhConfig(iterations=200, seed=0, objective=objective))
            record = records[0]
            assert all(r is record for r in records)
            outcomes = record.outcomes
            assert list(outcomes) == list(dict.fromkeys(evaluated))[:cap]
            counts = Counter(evaluated)
            assert all(counts[key] == 1 for key in outcomes)
            solves.append((record, list(evaluated)))
        # Each solve starts from a fresh record: both objectives make the
        # same draws, so the same evaluations.
        (profit_record, profit), (requests_record, requests) = solves
        assert profit_record is not requests_record and profit == requests


@given(st.integers(min_value=0, max_value=5_000), st.sampled_from([1, 2]),
       st.integers(min_value=1, max_value=60))
def test_rh_equals_the_plain_loop(seed, workers, iterations):
    # A short duty time closes routes mid-construction; with two workers a
    # second route opens after the first closes.
    instance = synthetic_instance(random.Random(seed),
                                  params=Parameters(worker_count=workers, duty_time=200.0))
    for objective in ("profit", "requests"):
        config = RhConfig(iterations=iterations, seed=seed, objective=objective)
        assert run_rh(instance, config) == _rh_reference(instance, config)


# ---------------------------------------------------------------------------
# Properties: the simulation agrees with an actual re-timed replay.
# ---------------------------------------------------------------------------

@given(st.integers(min_value=0, max_value=5_000))
def test_simulated_insertions_replay_exactly(seed):
    rng = random.Random(seed)
    instance = synthetic_instance(rng)
    cases, _ = grow_route(instance, rng)
    for route, gap, pair in cases:
        applied = apply_insertion(route, gap, pair, instance)
        assert validate_route(applied, instance).ok
        predicted = time_extension(route, gap, pair, instance)
        assert applied.duration - route.duration == pytest.approx(predicted, abs=1e-6)


@given(st.integers(min_value=0, max_value=5_000))
def test_simulation_is_apply_and_validate_at_every_gap(seed):
    # Every gap of every route grown along the way, infeasible ones included:
    # the verdict is the validator's on the applied insertion, and the
    # duration change is the applied route's, to the last bit.
    rng = random.Random(seed)
    instance = synthetic_instance(rng)
    cases, final = grow_route(instance, rng)
    routes = {route for route, _, _ in cases} | ({final} if final is not None else set())
    for route in routes:
        served = set(route.request_ids)
        for pair in synthetic_pairs(instance):
            if pair[0].id in served:
                continue
            for gap in range(len(route.visits) // 2 + 1):
                feasible, change = _simulate_insertion(route, gap, pair, instance)
                applied = apply_insertion(route, gap, pair, instance)
                assert feasible == validate_route(applied, instance).ok
                assert change == applied.duration - route.duration


def _check_placement(route, pair, instance, candidate):
    """``candidate`` is None exactly when no gap simulates feasible, and
    otherwise places the route ``apply_insertion`` builds at its gap."""
    gaps = range(len(route.visits) // 2 + 1)
    feasible = any(_simulate_insertion(route, gap, pair, instance)[0] for gap in gaps)
    assert (candidate is not None) == feasible
    if candidate is not None:
        assert candidate.route == apply_insertion(route, candidate.gap, pair, instance)
        assert validate_route(candidate.route, instance).ok


@given(st.integers(min_value=0, max_value=5_000))
def test_best_insertion_places_the_replayed_route(seed):
    # Every route grown along the way and the empty one, against every
    # pair it does not serve.
    rng = random.Random(seed)
    instance = synthetic_instance(rng)
    cases, final = grow_route(instance, rng)
    routes = {route for route, _, _ in cases} | {final, _EMPTY_ROUTE} - {None}
    for route in routes:
        served = set(route.request_ids)
        for pair in synthetic_pairs(instance):
            if pair[0].id not in served:
                _check_placement(route, pair, instance, best_insertion(route, pair, instance))


def test_every_rh_placement_is_its_replay(monkeypatch):
    # The attempts RH evaluates on the fleet, each checked as it is made,
    # with the gap-0 departure the graph keeps.
    vamat = make_benchmark("vamat_like", 30, seed=0)
    best = insertion.best_insertion
    placed = []

    def checked(route, pair, instance, opening):
        candidate = best(route, pair, instance, opening)
        _check_placement(route, pair, instance, candidate)
        placed.append(candidate is not None)
        return candidate

    monkeypatch.setattr(insertion, "best_insertion", checked)
    for instance in (*RH_CONTRACT_FLEET, vamat[0], vamat[19]):
        run_rh(instance, RhConfig(iterations=50, seed=0))
    assert set(placed) == {True, False}


@given(st.integers(min_value=0, max_value=5_000))
def test_best_insertion_agrees_with_gap_scan(seed):
    rng = random.Random(seed)
    instance = synthetic_instance(rng)
    _, route = grow_route(instance, rng)
    if route is None:
        return
    for pair in synthetic_pairs(instance):
        served = set(route.request_ids)
        if pair[0].id in served or pair[1].id in served:
            continue
        gaps = len(route.visits) // 2 + 1
        feasible = [
            (time_extension(route, gap, pair, instance), gap)
            for gap in range(gaps)
            if _simulate_insertion(route, gap, pair, instance)[0]
        ]
        best = best_insertion(route, pair, instance)
        if not feasible:
            assert best is None
        else:
            expected_te, _ = min(feasible)
            assert best.time_extension == pytest.approx(expected_te, abs=1e-6)
            earliest = min(g for te, g in feasible
                           if te <= expected_te + 1e-6)
            assert best.gap == earliest


def _gap_scan(route, pair, instance):
    """``best_insertion`` by a scan over every gap: ``_simulate_insertion``'s
    verdicts and duration changes, the cheapest gap (ties toward the
    earliest) placed by ``apply_insertion``."""
    best = None
    for gap in range(len(route.visits) // 2 + 1):
        feasible, change = _simulate_insertion(route, gap, pair, instance)
        if feasible and (best is None or change < best[1] - EPS):
            best = gap, change
    if best is None:
        return None
    gap, change = best
    return InsertionCandidate(pair[0].id, pair[1].id, gap, change,
                              apply_insertion(route, gap, pair, instance))


_ODD_WINDOW = st.sampled_from([math.nan, math.inf, -math.inf])


def test_best_insertion_skips_only_gaps_that_fail(monkeypatch):
    # Tight windows, so that both cuts fire: gap 0 failing at the route's
    # first pickup, and the scan stopping at a departure past the pair's
    # windows.  Some inserted pairs carry a NaN or infinite window.  With
    # the head passed and computed, ``best_insertion`` equals the scan
    # over every gap, field for field, and every gap it does not walk is
    # one ``_simulate_insertion`` rejects.
    walked = []
    judge = insertion._judge
    monkeypatch.setattr(insertion, "_judge", lambda instance, start, dep, loc, order, *rest, **kwargs: (
        walked.append(order) or judge(instance, start, dep, loc, order, *rest, **kwargs)))
    fired = Counter()

    @given(st.integers(min_value=0, max_value=5_000), st.data())
    def check(seed, data):
        rng = random.Random(seed)
        instance = tight_windows(synthetic_instance(rng, n_pairs=rng.randint(4, 8)), rng)
        cases, final = grow_route(instance, rng)
        routes = {route for route, _, _ in cases} | {final, _EMPTY_ROUTE} - {None}
        for route in sorted(routes, key=lambda r: r.request_ids):
            served = set(route.request_ids)
            n = len(route.visits) // 2
            for pair in synthetic_pairs(instance):
                if pair[0].id in served:
                    continue
                if data.draw(st.booleans()):
                    odd = SimpleNamespace(**vars(pair[data.draw(st.integers(0, 1))]))
                    setattr(odd, data.draw(st.sampled_from(["tw_min", "tw_max"])), data.draw(_ODD_WINDOW))
                    pair = tuple(odd if r.id == odd.id else r for r in pair)
                expected = _gap_scan(route, pair, instance)
                walked.clear()
                assert best_insertion(route, pair, instance) == expected
                # A walk's order starts with the pair at gaps >= 1 and
                # with the route's requests at gap 0 (after the head).
                gaps = {n - (len(order) - 2) // 2 if order and order[0] is pair[0] else 0 for order in walked}
                skipped = set(range(n + 1)) - gaps
                assert not any(_simulate_insertion(route, gap, pair, instance)[0] for gap in skipped)
                fired["gap 0"] += n > 0 and 0 in skipped
                fired["later"] += bool(skipped - {0})
                assert best_insertion(route, pair, instance, insertion._pair_head(pair, instance)) == expected

    check()
    assert fired["gap 0"] and fired["later"]
