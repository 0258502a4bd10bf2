"""Exhaustive solver: base cases, tie-breaking, safety rails, gap metric,
and a brute-force cross-check against a departure-time grid scan."""

import dataclasses
import hashlib
import itertools
import math
import random
import time

import pytest
from hypothesis import given, settings, strategies as st

from conftest import single_pair_reference, synthetic_instance, tight_windows
from evrelo import exact
from evrelo.errors import InstanceTooLarge, RejectedRoute
from evrelo.exact import OracleLimits, optimality_gap, solve_exact
from evrelo.feasibility import (
    ValidationResult,
    Violation,
    propagate,
    replay_route,
    route_end,
    route_start,
    validate_route,
    validate_solution,
)
from evrelo.generator import make_benchmark
from evrelo.insertion import run_ch
from evrelo.model import (
    EPS,
    Instance,
    Parameters,
    Request,
    RequestKind,
    RevenueModel,
    Solution,
    assemble_solution,
    empty_solution,
    objective_value,
)


def _solution_with(profit=0.0, served=()):
    return Solution(routes=(), served=frozenset(served), rejected=frozenset(),
                    total_revenue=0.0, worker_cost=0.0, profit=profit)


def _coincident(pairs, park=1.0, load=1.0, opens=None, **params):
    """Pairs all sharing one station 1 km from the depot."""
    big = 10_000.0
    requests = []
    for i in range(pairs):
        open_ = opens[i] if opens else 10.0
        requests.append(Request(id=2 * i + 1, kind=RequestKind.PICKUP, location=1,
                                tw_min=open_, tw_max=big, battery=1.0, revenue=20.0))
        requests.append(Request(id=2 * i + 2, kind=RequestKind.DELIVERY, location=1,
                                tw_min=0.0, tw_max=big, battery=0.0, revenue=20.0))
    defaults = dict(park_time=park, load_time=load, worker_cost=30.0)
    defaults.update(params)
    return Instance(parameters=Parameters(**defaults), requests=tuple(requests),
                    distances=((0.0, 1.0), (1.0, 0.0)))


# ---------------------------------------------------------------------------
# Base cases.
# ---------------------------------------------------------------------------

def test_exact_empty_instance():
    inst = Instance(parameters=Parameters(), requests=(), distances=((0.0,),))
    solution = solve_exact(inst)
    assert solution.routes == ()
    assert solution.profit == 0.0
    assert solution.optimal is True


def test_exact_serves_pair_that_pays_for_its_worker():
    inst = single_pair_reference()  # revenue 40 against a 30 worker cost
    solution = solve_exact(inst, objective="profit")
    assert solution.served == frozenset({1, 2})
    assert solution.profit == pytest.approx(10.0)
    assert solution.optimal is True
    assert validate_solution(solution, inst).ok


def test_exact_profit_mode_leaves_unprofitable_pair_unserved():
    base = single_pair_reference()
    inst = dataclasses.replace(base, parameters=dataclasses.replace(
        base.parameters, worker_cost=60.0))
    by_profit = solve_exact(inst, objective="profit")
    assert by_profit.routes == ()
    assert by_profit.profit == 0.0
    by_requests = solve_exact(inst, objective="requests")
    assert by_requests.served == frozenset({1, 2})
    assert by_requests.profit == pytest.approx(-20.0)


def test_exact_rejects_unknown_objective():
    with pytest.raises(ValueError):
        solve_exact(single_pair_reference(), objective="fastest")


# ---------------------------------------------------------------------------
# Tie-breaking and determinism.
# ---------------------------------------------------------------------------

def test_exact_prefers_fewer_routes_at_equal_value():
    inst = _coincident(pairs=2, opens=[10.0, 10.0])
    solution = solve_exact(inst, objective="requests")
    assert len(solution.served) == 4
    assert len(solution.routes) == 1


def test_exact_breaks_remaining_ties_by_lowest_served_ids():
    # duty fits exactly one pair and every single-pair route serves two
    # requests, so the lexicographically smallest served set wins
    inst = _coincident(pairs=3, park=15.0, load=15.0,
                       opens=[10.0, 10.0, 10.0], duty_time=50.0,
                       worker_count=1)
    solution = solve_exact(inst, objective="requests")
    assert len(solution.routes) == 1
    assert solution.served == frozenset({1, 2})


def test_exact_deterministic():
    rng = random.Random(3)
    inst = synthetic_instance(rng, n_pairs=2)
    assert solve_exact(inst, "profit") == solve_exact(inst, "profit")
    assert solve_exact(inst, "requests") == solve_exact(inst, "requests")


# ---------------------------------------------------------------------------
# Safety rails.
# ---------------------------------------------------------------------------

def test_exact_refuses_oversized_instances():
    rng = random.Random(5)
    inst = synthetic_instance(rng, n_pairs=3)  # six requests
    with pytest.raises(InstanceTooLarge):
        solve_exact(inst, limits=OracleLimits(max_requests=4))


def test_exact_default_cap_is_ten_requests():
    rng = random.Random(6)
    inst = synthetic_instance(rng, n_pairs=6)  # twelve requests
    with pytest.raises(InstanceTooLarge):
        solve_exact(inst)


def test_exact_time_budget_clears_optimality_flag():
    inst = _coincident(pairs=2)
    rushed = solve_exact(inst, objective="requests",
                         limits=OracleLimits(time_budget=0.0))
    assert rushed.optimal is False
    relaxed = solve_exact(inst, objective="requests",
                          limits=OracleLimits(time_budget=60.0))
    assert relaxed.optimal is True


def test_a_search_cut_short_returns_no_less_than_ch(monkeypatch):
    # #22 (22 requests) is far from enumerated in the budget; without CH as
    # the incumbent the search returned profit 0 against CH's 100.
    instance = make_benchmark("amat_like", 30, seed=0)[22]
    for objective in ("profit", "requests"):
        ch = run_ch(instance, objective=objective)
        assert objective_value(ch, objective) > 0
        rushed = solve_exact(instance, objective=objective,
                             limits=OracleLimits(max_requests=30, time_budget=0.05))
        assert rushed.optimal is False
        assert objective_value(rushed, objective) >= objective_value(ch, objective)
        assert validate_solution(rushed, instance).ok
    # Without a budget CH is not run.
    monkeypatch.setattr(exact, "run_ch", None)
    assert solve_exact(_coincident(pairs=2), objective="requests").optimal is True


def test_oracle_limits_refuse_a_nan_or_negative_budget():
    # A NaN budget would mean no budget: no deadline comparison holds.
    for budget in (float("nan"), -1.0, float("-inf")):
        with pytest.raises(ValueError, match="time_budget"):
            OracleLimits(time_budget=budget)
    with pytest.raises(TypeError):
        OracleLimits(time_budget="60")
    assert OracleLimits(time_budget=0).time_budget == 0
    assert OracleLimits(time_budget=None).time_budget is None


def test_oracle_limits_refuse_a_cap_that_is_no_whole_count():
    # A NaN cap would be no cap: ``n > nan`` never holds.
    for cap in (float("nan"), True, 2.5, 10.0, -1, "10", None):
        with pytest.raises(ValueError, match="max_requests"):
            OracleLimits(max_requests=cap)
    assert OracleLimits(max_requests=0).max_requests == 0


def _masks_digest(masks, instance):
    """SHA-256 over every served set and the exact values of its route,
    replayed from the stored (start, order)."""
    routes = {ids: replay_route(instance, start, order) for ids, (start, order) in masks.items()}
    rows = sorted(
        (tuple(sorted(ids)), route.start_time, route.end_time,
         tuple((v.request_id, v.arrival, v.waiting, v.ev_charge) for v in route.visits))
        for ids, route in routes.items()
    )
    return hashlib.sha256(repr(rows).encode()).hexdigest()


# make_benchmark("amat_like", 30, seed=0) index -> (enumeration nodes, served
# sets, digest of the representative routes).  #2 and #16 were recorded when
# every child was still judged by replaying it from the depot, #20 when every
# (pickup, delivery) of a node was still judged.  #2 starts a route in the
# bisection branch; #16 has 22 requests; #20, with 16, is the costliest
# enumeration of the compare_amat workload.
AMAT_ENUMERATION = {
    2: (38, 37, "796d4349e771c4449770b5a6fd8d857470913593500c6efcc0c22aec34549934"),
    16: (2293, 1103, "f6d7cc1e47e1eea4ec023fe959e33c398a9959a48bb9105ba229f43597962d65"),
    20: (114, 113, "2a09eeae787481f10bdf271730778cb9c90868380a89332954b5cd3910081e17"),
}


def test_exact_counts_search_nodes():
    limits = OracleLimits()
    solve_exact(_coincident(pairs=2), objective="requests", limits=limits)
    assert limits.nodes > 0
    instances = make_benchmark("amat_like", 30, seed=0)
    limits = OracleLimits(max_requests=16)
    solve_exact(instances[2], objective="profit", limits=limits)
    assert limits.nodes == 59  # 38 enumeration nodes, 21 packing steps
    for index, (nodes, served_sets, digest) in AMAT_ENUMERATION.items():
        limits = OracleLimits()
        masks, complete = exact._feasible_route_masks(instances[index], limits, None)
        assert complete
        assert (limits.nodes, len(masks)) == (nodes, served_sets), index
        assert _masks_digest(masks, instances[index]) == digest, index


# ---------------------------------------------------------------------------
# Gap metric.
# ---------------------------------------------------------------------------

def test_gap_profit_percentage():
    gap = optimality_gap(_solution_with(profit=15.0), _solution_with(profit=20.0))
    assert gap == pytest.approx(25.0)


def test_gap_requests_percentage():
    gap = optimality_gap(_solution_with(served={1, 2}),
                         _solution_with(served={1, 2, 3, 4}),
                         objective="requests")
    assert gap == pytest.approx(50.0)


def test_gap_zero_reference_conventions():
    assert optimality_gap(_solution_with(profit=0.0), _solution_with(profit=0.0)) == 0.0
    assert optimality_gap(_solution_with(profit=5.0), _solution_with(profit=0.0)) is None


def test_gap_rejects_unknown_objective():
    with pytest.raises(ValueError):
        optimality_gap(_solution_with(), _solution_with(), objective="fastest")


# ---------------------------------------------------------------------------
# Brute-force cross-check: the oracle equals an independent search that
# judges sequence feasibility by replaying a grid of depot departures.
# ---------------------------------------------------------------------------

def _grid_route(instance, order, extra_starts):
    first = order[0]
    lo = route_start(instance, first, first.tw_min)
    hi = route_start(instance, first, first.tw_max)
    starts = {lo, hi}
    starts.update(s for s in extra_starts if lo - 1e-9 <= s <= hi + 1e-9)
    step = lo
    while step < hi:
        starts.add(step)
        step += 1.0
    for start in sorted(starts, reverse=True):
        route = replay_route(instance, start, order)
        if validate_route(route, instance).ok:
            return route
    return None


def _brute_force(instance, objective, extra_starts):
    pickups = [r for r in instance.requests if r.kind is RequestKind.PICKUP]
    deliveries = [r for r in instance.requests if r.kind is RequestKind.DELIVERY]
    routes = {}
    for k in (1, 2):
        for ps in itertools.permutations(pickups, k):
            for ds in itertools.permutations(deliveries, k):
                order = [r for pair in zip(ps, ds) for r in pair]
                route = _grid_route(instance, order, extra_starts)
                if route is not None:
                    routes.setdefault(frozenset(r.id for r in order), route)

    def value(ids_sets):
        if objective == "requests":
            return float(sum(len(ids) for ids in ids_sets))
        revenue = sum(instance.request(i).revenue for ids in ids_sets for i in ids)
        return revenue - instance.parameters.worker_cost * len(ids_sets)

    best = 0.0
    keys = list(routes)
    limit = min(len(keys), instance.parameters.worker_count)
    for k in range(1, limit + 1):
        for combo in itertools.combinations(keys, k):
            if len(frozenset().union(*combo)) != sum(len(c) for c in combo):
                continue
            best = max(best, value(combo))
    return best


@given(st.integers(min_value=0, max_value=300))
def test_exact_matches_grid_scan_brute_force(seed):
    rng = random.Random(seed)
    instance = synthetic_instance(rng, n_pairs=2)
    for objective in ("requests", "profit"):
        solution = solve_exact(instance, objective=objective)
        assert solution.optimal is True
        assert validate_solution(solution, instance).ok
        oracle_value = (float(len(solution.served)) if objective == "requests"
                        else solution.profit)
        brute = _brute_force(
            instance, objective,
            extra_starts=[r.start_time for r in solution.routes],
        )
        assert oracle_value == pytest.approx(brute, abs=1e-6)


# ---------------------------------------------------------------------------
# Incremental verdicts: every child the enumeration judges from its parent's
# end states gets exactly the verdict of a from-scratch departure scan.
# ---------------------------------------------------------------------------

def _scan_from_depot(seq, start, instance):
    _, dep, failures = propagate(instance, start, 0, seq)
    windows_ok = all(code == "battery_range" for code, _ in failures)
    range_ok = all(code != "battery_range" for code, _ in failures)
    return windows_ok, range_ok, dep


def _bisection(order, instance):
    """The reference: (start, last failing midpoint) from 60 halvings of
    [floor, ceiling], every midpoint walked from the depot, or None unless
    the floor passes and the ceiling fails."""
    first = order[0]
    lo = route_start(instance, first, first.tw_min)
    hi = route_start(instance, first, first.tw_max)
    if not _scan_from_depot(order, lo, instance)[0] or _scan_from_depot(order, hi, instance)[0]:
        return None
    for _ in range(60):
        mid = 0.5 * (lo + hi)
        if _scan_from_depot(order, mid, instance)[0]:
            lo = mid
        else:
            hi = mid
    return lo, hi


def _latest_window_start(seq, instance):
    """Ceiling if it passes, None if the floor fails, else 60 halvings."""
    first = seq[0]
    hi = route_start(instance, first, first.tw_max)
    if _scan_from_depot(seq, hi, instance)[0]:
        return hi
    bisected = _bisection(seq, instance)
    return None if bisected is None else bisected[0]


def _viable_schedule(seq, instance):
    start = _latest_window_start(seq, instance)
    if start is None:
        return None
    _, range_ok, dep = _scan_from_depot(seq, start, instance)
    if range_ok and dep - start <= instance.parameters.duty_time + EPS:
        return start
    return None


def _judged_children(instance):
    """(sequence, start or None) for every child the enumeration judges,
    in the order it judges them."""
    judged = []
    judge = exact._child_label

    def spy(parent, seq, pickup, delivery, inst):
        child = judge(parent, seq, pickup, delivery, inst)
        verdict = None if child is None else child.start
        judged.append(((*seq, pickup, delivery), verdict))
        return child

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(exact, "_child_label", spy)
        exact._feasible_route_masks(instance, OracleLimits(), None)
    return judged


def _assert_verdicts_match_the_scan(instance):
    """Every verdict equals the scan's; returns how many children died,
    started at the ceiling and started below it."""
    dead = at_ceiling = below = 0
    for seq, verdict in _judged_children(instance):
        assert verdict == _viable_schedule(seq, instance), [r.id for r in seq]
        if verdict is None:
            dead += 1
        elif verdict == route_start(instance, seq[0], seq[0].tw_max):
            at_ceiling += 1
        else:
            below += 1
    return dead, at_ceiling, below


def test_incremental_verdicts_equal_the_scan_on_amat_like():
    counts = [0, 0, 0]
    for instance in make_benchmark("amat_like", 30, seed=0):
        if len(instance.requests) <= 16:
            for i, n in enumerate(_assert_verdicts_match_the_scan(instance)):
                counts[i] += n
    # dead, ceiling and bisected children are all exercised
    assert min(counts) > 0, counts


@given(st.integers(min_value=0, max_value=10_000), st.integers(min_value=2, max_value=3))
def test_incremental_verdicts_equal_the_scan_on_synthetic_instances(seed, n_pairs):
    _assert_verdicts_match_the_scan(synthetic_instance(random.Random(seed), n_pairs=n_pairs))


# ---------------------------------------------------------------------------
# The start search: ``_latest_start`` gives, bit for bit, the start that 60
# halvings of [floor, ceiling] give when every midpoint is walked from the
# depot, and the end state there; the slack estimate sets only the number
# of walks.
# ---------------------------------------------------------------------------

def _bits(x):
    """``x`` with the sign of a zero."""
    return x, math.copysign(1.0, x)


def _depot_walked_label(order, instance):
    """The label of ``order`` with its floor and ceiling states walked from
    the depot."""
    depot = exact._depot_label(order[0], instance)
    return exact._Label(depot.lo, depot.hi, exact._advance(depot.floor, order, instance),
                        exact._advance(depot.ceiling, order, instance))


def _check_start(order, instance, seen):
    """``_child_label`` and ``_latest_start`` on ``order`` against the
    reference; adds to ``seen`` what the case exercised."""
    seq, (pickup, delivery) = list(order[:-2]), order[-2:]
    parent = _depot_walked_label(seq, instance) if seq else exact._depot_label(order[0], instance)
    child = exact._child_label(parent, seq, pickup, delivery, instance)
    verdict = _viable_schedule(order, instance)
    assert (child is None) == (verdict is None)
    if child is not None:
        assert _bits(child.start) == _bits(verdict)
        assert child.end[:3] == _scan_from_depot(order, child.start, instance)
    reference = _bisection(order, instance)
    if reference is None:
        return
    start, failing = reference
    start_found, end = exact._latest_start(_depot_walked_label(order, instance), order, instance)
    assert _bits(start_found) == _bits(start)
    assert end[:3] == _scan_from_depot(order, start, instance)
    seen.add("bisected")
    if math.nextafter(start, math.inf) < failing:
        seen.add("halvings stop short")
    if start < 0.0:
        seen.add("negative start")
    stops, _, failures = propagate(instance, failing, 0, order)
    codes = {code for code, _ in failures}
    if codes & {"pickup_window", "delivery_window"}:
        seen.add("later window")
    if "battery_target" in codes and any(
            code == "battery_target" and stops[visit - 1][2] == 1.0 for code, visit in failures):
        seen.add("target at full charge")


@st.composite
def _start_cases(draw):
    """1-3 pairs on a line, 4 bike or 2 EV minutes per km, with windows
    drawn around the walk from a departure between -60 and 60: each opens
    up to 50 minutes before that walk's arrival and closes 0-5 (narrow) or
    5-300 (wide) minutes after it, so the floor mostly passes and a later
    window or a charge target often fails before the ceiling.  Battery
    levels near or at 1 and a short recharge time let a target bind at full
    charge.  With no handling time and stations at the depot, the end
    departure is the start itself.  In the near-zero cases the walk leaves at 0 and one later stop
    closes within 0.3 of where that walk reaches it."""
    n_pairs = draw(st.integers(1, 3))
    coords = draw(st.lists(st.integers(0, 6).map(float), min_size=2 * n_pairs, max_size=2 * n_pairs))
    battery = st.one_of(st.floats(0.0, 1.0), st.floats(0.9, 1.0), st.just(1.0))
    near_zero = draw(st.booleans())
    departure = 0.0 if near_zero else draw(st.floats(-60.0, 60.0))
    pts = [0.0] + coords
    instance = Instance(
        parameters=Parameters(bike_speed=15.0, ev_speed=30.0, full_range=20.0,
                              recharge_time=draw(st.sampled_from([10.0, 60.0, 240.0])),
                              park_time=draw(st.sampled_from([0.0, 1.0])),
                              load_time=draw(st.sampled_from([0.0, 1.0]))),
        requests=tuple(
            Request(id=i + 1, kind=RequestKind.DELIVERY if i % 2 else RequestKind.PICKUP, location=i + 1,
                    tw_min=-1e4, tw_max=1e4, battery=draw(battery), revenue=20.0)
            for i in range(2 * n_pairs)),
        distances=tuple(tuple(abs(a - b) for b in pts) for a in pts))
    # Windows opening no later than the arrival keep the walk wait-free.
    stops, _, _ = propagate(instance, departure, 0, instance.requests)
    width = st.one_of(st.floats(0.0, 5.0), st.floats(5.0, 300.0))
    requests = [dataclasses.replace(r, tw_min=arrival - draw(st.floats(0.0, 50.0)), tw_max=arrival + draw(width))
                for r, (arrival, _, _) in zip(instance.requests, stops)]
    if near_zero:
        later = draw(st.integers(1, len(requests) - 1))
        closing = stops[later][0] - EPS + draw(st.sampled_from([0.0, 1e-15, -1e-15, 1e-12, -1e-12, 0.3, -0.3]))
        requests[later] = dataclasses.replace(requests[later], tw_min=min(requests[later].tw_min, closing),
                                              tw_max=closing)
    return dataclasses.replace(instance, requests=tuple(requests))


def test_the_start_is_the_bisections():
    seen = set()

    @settings(max_examples=300)
    @given(_start_cases())
    def check(instance):
        reqs = instance.requests
        for k in range(2, len(reqs) + 1, 2):
            _check_start(reqs[:k], instance, seen)

    check()
    assert seen == {"bisected", "halvings stop short", "negative start", "later window",
                    "target at full charge"}, seen


def test_the_start_is_the_bisections_on_amat_like():
    bisected = 0
    for instance in _small_amat_like():
        for order, _ in _judged_children(instance):
            seen = set()
            _check_start(order, instance, seen)
            bisected += "bisected" in seen
    assert bisected > 0


def test_the_end_state_is_the_one_at_the_start_the_halvings_give():
    # One pair at the depot with no handling time: the end departure is the
    # start itself.  The latest passing departure is 0.3, and the estimate
    # finds it, but 60 halvings of [-1, 100] stop an ulp below it: the end
    # state is the one there.
    requests = (
        Request(id=1, kind=RequestKind.PICKUP, location=1, tw_min=-1.0, tw_max=100.0, battery=1.0, revenue=20.0),
        Request(id=2, kind=RequestKind.DELIVERY, location=2, tw_min=-100.0, tw_max=0.3 - EPS, battery=0.0,
                revenue=20.0),
    )
    instance = Instance(parameters=Parameters(park_time=0.0, load_time=0.0), requests=requests,
                        distances=((0.0, 0.0, 0.0),) * 3)
    order = list(requests)
    assert _scan_from_depot(order, 0.3, instance)[0] and not _scan_from_depot(order, math.nextafter(0.3, 1), instance)[0]
    child = exact._child_label(exact._depot_label(requests[0], instance), [], *requests, instance)
    assert child.start == _bisection(order, instance)[0] == math.nextafter(0.3, 0)
    assert child.end == (True, True, child.start, 2)


def test_the_estimate_brackets_the_start_on_amat_like():
    # The slack estimate is within a few ulps of the start: each bisected
    # child costs at most 4 walks from the depot, not about 45 halvings.
    walks = []
    search = exact._latest_start

    def spy(label, order, instance):
        with pytest.MonkeyPatch.context() as patch:
            advanced = _spy_on_advance(patch)
            found = search(label, order, instance)
        walks.append(len(advanced))
        return found

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(exact, "_latest_start", spy)
        for instance in _small_amat_like():
            exact._feasible_route_masks(instance, OracleLimits(max_requests=16), None)
    assert len(walks) == 110 and max(walks) <= 4, (len(walks), max(walks))


def _count_walks(instance):
    with pytest.MonkeyPatch.context() as patch:
        advanced = _spy_on_advance(patch)
        _assert_verdicts_match_the_scan(instance)
    return len(advanced)


@pytest.mark.parametrize("estimate", [
    lambda instance, start, order: -1e9,  # far too low
    lambda instance, start, order: 1e9,  # far too high
    lambda instance, start, order: float("nan"),
], ids=["too-low", "too-high", "nan"])
def test_a_wrong_estimate_costs_walks_not_the_start(estimate):
    walks = patched = 0
    for instance in _small_amat_like():
        walks += _count_walks(instance)
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(exact, "_window_slack", estimate)
            patched += _count_walks(instance)
    assert patched > walks


# ---------------------------------------------------------------------------
# Skipped work: a pickup late at a node's floor state is not judged with any
# delivery, and a midpoint state the parent fails is handed down unwalked.
# ---------------------------------------------------------------------------

def _spy_on_advance(patch):
    """Patch ``_advance`` to record every state it is asked to walk on."""
    advanced, advance = [], exact._advance
    patch.setattr(exact, "_advance", lambda state, *rest: advanced.append(state) or advance(state, *rest))
    return advanced


def _enumerate_with_spies(instance):
    """Run the enumeration and return (nodes, judged, advanced): every node
    as (label, sequence), the root's label being None; every judged
    (sequence ids, pickup id, delivery id); and every state ``_advance`` was
    asked to walk on."""
    nodes, judged = [(None, ())], set()
    judge = exact._child_label

    def spy(parent, seq, pickup, delivery, inst):
        child = judge(parent, seq, pickup, delivery, inst)
        judged.add((tuple(r.id for r in seq), pickup.id, delivery.id))
        if child is not None:
            nodes.append((child, (*seq, pickup, delivery)))
        return child

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(exact, "_child_label", spy)
        advanced = _spy_on_advance(patch)
        exact._feasible_route_masks(instance, OracleLimits(max_requests=16), None)
    return nodes, judged, advanced


def _assert_unjudged_children_die(instance):
    """At every node, each unused (pickup, delivery) the loop does not judge
    gets None from ``_child_label`` called from the node's label.  Returns
    how many there were."""
    nodes, judged, _ = _enumerate_with_spies(instance)
    skipped = 0
    for label, seq in nodes:
        ids = tuple(r.id for r in seq)
        for p in instance.pickups:
            for d in instance.deliveries:
                if p.id in ids or d.id in ids or (ids, p.id, d.id) in judged:
                    continue
                parent = label if seq else exact._depot_label(p, instance)
                assert exact._child_label(parent, list(seq), p, d, instance) is None, (ids, p.id, d.id)
                skipped += 1
    return skipped


def _small_amat_like():
    return [inst for inst in make_benchmark("amat_like", 30, seed=0) if len(inst.requests) <= 16]


def test_a_skipped_child_is_dead_on_amat_like():
    assert sum(_assert_unjudged_children_die(inst) for inst in _small_amat_like()) > 0


def test_a_skipped_child_is_dead_on_tight_synthetic_instances():
    skipped = []

    @given(st.integers(min_value=0, max_value=10_000), st.integers(min_value=2, max_value=4))
    def check(seed, n_pairs):
        rng = random.Random(seed)
        skipped.append(_assert_unjudged_children_die(tight_windows(synthetic_instance(rng, n_pairs=n_pairs), rng)))

    check()
    assert sum(skipped) > 0


def _late_second_pickup(close, first_close=0.0):
    """Stations on a line 1, 2, 3 and 4 km from the depot hold pickup 1,
    delivery 2, pickup 3 and delivery 4; a 4-minute ride or a 2-minute
    drive per km.  Pickup 1 opens at 0, so the route (1, 2) leaves delivery
    2 at 4 at the floor and reaches pickup 3 at 8.  Pickup 1 closes at
    ``first_close``, pickup 3 at ``close``."""
    big = 10_000.0
    requests = (
        Request(id=1, kind=RequestKind.PICKUP, location=1, tw_min=0.0, tw_max=first_close, battery=1.0,
                revenue=20.0),
        Request(id=2, kind=RequestKind.DELIVERY, location=2, tw_min=0.0, tw_max=big, battery=0.0, revenue=20.0),
        Request(id=3, kind=RequestKind.PICKUP, location=3, tw_min=0.0, tw_max=close, battery=1.0, revenue=20.0),
        Request(id=4, kind=RequestKind.DELIVERY, location=4, tw_min=0.0, tw_max=big, battery=0.0, revenue=20.0),
    )
    distances = tuple(tuple(float(abs(i - j)) for j in range(5)) for i in range(5))
    return Instance(parameters=Parameters(bike_speed=15.0, ev_speed=30.0),
                    requests=requests, distances=distances)


@pytest.mark.parametrize("close, judged", [
    (8.0 - EPS / 2, True),   # reached half a tolerance inside tw_max + EPS
    (8.0 - EPS, True),       # reached exactly at tw_max + EPS
    (8.0 - 1.5 * EPS, False),  # reached half a tolerance past it
])
def test_a_pickup_on_the_floor_tests_boundary(close, judged):
    # The floor test is propagate's own comparison: ``<=``, EPS and a bike
    # ride from the node's last stop.
    instance = _late_second_pickup(close)
    assert judged == (8.0 <= close + EPS)
    nodes, calls, _ = _enumerate_with_spies(instance)
    assert (((1, 2), 3, 4) in calls) == judged
    assert ((1, 2, 3, 4) in {tuple(r.id for r in seq) for _, seq in nodes}) == judged
    _assert_unjudged_children_die(instance)


def test_a_node_whose_pickups_are_all_late_judges_nothing():
    # Past the root every unused pickup is late at the node's floor: only
    # the root's four (pickup, delivery) are judged.
    _, calls, _ = _enumerate_with_spies(_late_second_pickup(8.0 - 1.5 * EPS))
    assert sorted(calls) == [((), 1, 2), ((), 1, 4), ((), 3, 2), ((), 3, 4)]


def test_a_midpoint_the_parent_fails_is_not_walked():
    # _advance never sets a flag back to True, so the enumeration never
    # asks it to walk a failed state.
    for instance in _small_amat_like():
        assert all(state[0] for state in _enumerate_with_spies(instance)[2])


# ---------------------------------------------------------------------------
# The label's verdict: a served set is recorded when its label's end state,
# plus the ride home, fits the duty time.  That is the validator's verdict on
# the route replayed from the label's start, both ways.
# ---------------------------------------------------------------------------

def _assert_label_verdicts_are_the_validators(instance):
    """Every node's label verdict equals the validator's on its replay, and
    every recorded served set replays to a route that validates.  Returns
    (refused, accepted) node counts."""
    nodes, _, _ = _enumerate_with_spies(instance)
    counts = [0, 0]
    for label, seq in nodes[1:]:
        fits = route_end(instance, label.start, label.end[2], seq[-1])[1]
        assert fits == validate_route(replay_route(instance, label.start, seq), instance).ok, [r.id for r in seq]
        counts[fits] += 1
    masks, complete = exact._feasible_route_masks(instance, OracleLimits(max_requests=16), None)
    assert complete
    for ids, (start, order) in masks.items():
        assert ids == {r.id for r in order}
        assert validate_route(replay_route(instance, start, order), instance).ok
    return counts


def test_the_label_verdict_is_the_validators_on_amat_like():
    counts = [0, 0]
    for instance in _small_amat_like():
        for i, n in enumerate(_assert_label_verdicts_are_the_validators(instance)):
            counts[i] += n
    # some prefixes outlast the duty time only with the ride home
    assert min(counts) > 0, counts


def _far_delivery(duty_time):
    """Pickup 1 at 1 km from the depot, delivery 2 at 10 km; a 4-minute ride
    or a 2-minute drive per km.  Pickup 1 closes as it opens, at 4, so the
    route leaves the depot at 0, leaves delivery 2 at 24 and is home at 64."""
    requests = (
        Request(id=1, kind=RequestKind.PICKUP, location=1, tw_min=4.0, tw_max=4.0, battery=1.0, revenue=20.0),
        Request(id=2, kind=RequestKind.DELIVERY, location=2, tw_min=0.0, tw_max=1e4, battery=0.0, revenue=20.0),
    )
    pts = (0.0, 1.0, 10.0)
    return Instance(parameters=Parameters(bike_speed=15.0, ev_speed=30.0, duty_time=duty_time),
                    requests=requests, distances=tuple(tuple(abs(a - b) for b in pts) for a in pts))


@pytest.mark.parametrize("duty_time, served", [(50.0, False), (64.0, True)])
def test_only_the_ride_home_breaks_the_duty_time(duty_time, served):
    instance = _far_delivery(duty_time)
    nodes, _, _ = _enumerate_with_spies(instance)
    [(label, _)] = nodes[1:]  # the prefix fits either way
    assert (label.start, label.end[2]) == (0.0, 24.0)
    assert _assert_label_verdicts_are_the_validators(instance) == [not served, served]
    assert solve_exact(instance, objective="requests").served == ({1, 2} if served else set())


def test_a_packed_route_the_validator_rejects_raises(monkeypatch):
    instance = single_pair_reference()
    assert solve_exact(instance).served == {1, 2}
    # Only a packed route is replayed and validated.
    checked = []
    monkeypatch.setattr(exact, "validate_route",
                        lambda route, inst: checked.append(route) or ValidationResult((Violation("duty"),)))
    with pytest.raises(RejectedRoute, match="validator rejects"):
        solve_exact(instance)
    assert [v.request_id for v in checked[0].visits] == [1, 2] and len(checked) == 1


# ---------------------------------------------------------------------------
# The driving-range prune: a child out of range at its start is cut with its
# subtree, and the range is judged at the start, not at the floor.
# ---------------------------------------------------------------------------

def _short_range():
    """Stations on a line 1, 3, 2 and 4 km from the depot hold pickup 1,
    delivery 2, pickup 3 and delivery 4; a 4-minute ride or a 2-minute
    drive per km, a 10 km range and a full charge in 100 minutes, so each
    2 km pair leg needs a charge of 0.2.  Pickup 1 holds 0.1 at its window
    opening and charges 0.2 more by its closing at 20; pickup 3 is empty
    and can gain no more than 0.05 by its closing at 5."""
    big = 10_000.0
    requests = (
        Request(id=1, kind=RequestKind.PICKUP, location=1, tw_min=0.0, tw_max=20.0, battery=0.1, revenue=20.0),
        Request(id=2, kind=RequestKind.DELIVERY, location=3, tw_min=0.0, tw_max=big, battery=0.0, revenue=20.0),
        Request(id=3, kind=RequestKind.PICKUP, location=2, tw_min=0.0, tw_max=5.0, battery=0.0, revenue=20.0),
        Request(id=4, kind=RequestKind.DELIVERY, location=4, tw_min=0.0, tw_max=big, battery=0.0, revenue=20.0),
    )
    distances = tuple(tuple(float(abs(i - j)) for j in range(5)) for i in range(5))
    return Instance(parameters=Parameters(bike_speed=15.0, ev_speed=30.0, full_range=10.0, recharge_time=100.0),
                    requests=requests, distances=distances)


def _verdicts(instance):
    return {tuple(r.id for r in seq): verdict for seq, verdict in _judged_children(instance)}


def test_a_child_out_of_range_at_its_floor_is_kept_and_starts_late():
    # Left at the floor, pickup 1 has 0.1 for the 0.2 leg; left at the
    # ceiling it has charged to 0.3.  Every window holds at both.
    instance = _short_range()
    p1, d2 = instance.requests[:2]
    floor, ceiling = (route_start(instance, p1, t) for t in (p1.tw_min, p1.tw_max))
    assert _scan_from_depot((p1, d2), floor, instance)[:2] == (True, False)
    assert _scan_from_depot((p1, d2), ceiling, instance)[:2] == (True, True)
    assert _verdicts(instance)[(1, 2)] == ceiling
    _assert_verdicts_match_the_scan(instance)


def test_a_child_out_of_range_at_every_departure_is_cut_with_its_subtree():
    # Pickup 3 never holds the 0.2 its leg needs, though every window holds:
    # (3, 4) is judged dead, so (3, 4, 1, 2), whose pickup 1 is reached in
    # its window from (3, 4)'s floor, is never judged.
    instance = _short_range()
    p3, d4 = instance.requests[2:]
    for t in (p3.tw_min, p3.tw_max):
        assert _scan_from_depot((p3, d4), route_start(instance, p3, t), instance)[:2] == (True, False)
    verdicts = _verdicts(instance)
    assert verdicts[(3, 4)] is None
    assert not any(ids[:2] == (3, 4) and len(ids) > 2 for ids in verdicts)
    _assert_verdicts_match_the_scan(instance)


# ---------------------------------------------------------------------------
# Packing.
# ---------------------------------------------------------------------------

def _frozenset_pack(instance, objective, limits):
    """``solve_exact`` without a time budget as it was when packing kept
    each served set as a frozenset and summed the free requests of the
    suffix for every candidate at every node; the packing is verbatim."""
    _TIE_TOL = exact._TIE_TOL
    deadline = None
    mask_map, complete = exact._feasible_route_masks(instance, limits, deadline)

    # What each request adds to the objective, and what each route costs.
    profit = objective == "profit"
    worth = {r.id: r.revenue if profit else 1.0 for r in instance.requests}
    cost = instance.parameters.worker_cost if profit else 0.0

    def pool_value(ids):
        return sum(worth[i] for i in ids)

    candidates = []
    for ids, plan in mask_map.items():
        value = pool_value(ids) - cost
        if value <= _TIE_TOL:
            continue  # can never raise the objective; dropping keeps routes minimal
        candidates.append((value, tuple(sorted(ids)), frozenset(ids), plan))
    candidates.sort(key=lambda c: (-c[0], c[1]))
    suffix_ids = [frozenset()] * (len(candidates) + 1)
    for i in range(len(candidates) - 1, -1, -1):
        suffix_ids[i] = suffix_ids[i + 1] | candidates[i][2]

    slots = instance.parameters.worker_count
    best = {"value": 0.0, "routes": 0, "key": (), "picks": ()}

    def consider(value, picks):
        n_routes = len(picks)
        key = tuple(sorted(i for c in picks for i in candidates[c][1]))
        incumbent = best["value"]
        if value > incumbent + _TIE_TOL:
            pass
        elif value < incumbent - _TIE_TOL:
            return
        elif (n_routes, key) >= (best["routes"], best["key"]):
            return
        best.update(value=value, routes=n_routes, key=key, picks=tuple(picks))

    def pack(start, used, value, picks):
        nonlocal complete
        if deadline is not None and time.monotonic() > deadline:
            complete = False
            return
        limits.nodes += 1
        consider(value, picks)
        if len(picks) == slots:
            return
        for j in range(start, len(candidates)):
            cand_value, _, ids, _ = candidates[j]
            headroom = min(
                (slots - len(picks)) * cand_value,
                pool_value(suffix_ids[j] - used),
            )
            if value + headroom < best["value"] - _TIE_TOL:
                break
            if ids & used:
                continue
            picks.append(j)
            pack(j + 1, used | ids, value + cand_value, picks)
            picks.pop()
            if not complete:
                return

    pack(0, frozenset(), 0.0, [])

    if not best["picks"]:
        solution = empty_solution(instance, optimal=complete)
    else:
        routes = []
        for j in best["picks"]:
            route = replay_route(instance, *candidates[j][3])
            if not validate_route(route, instance).ok:
                raise RejectedRoute(f"the validator rejects the packed route serving {candidates[j][1]}")
            routes.append(route)
        solution = assemble_solution(routes, instance, optimal=complete)
    return solution


@settings(max_examples=150)
@given(seed=st.integers(0, 10_000), n_pairs=st.integers(2, 4), workers=st.integers(1, 3),
       worker_cost=st.sampled_from([0.0, 30.0, 60.0]), fractional=st.booleans(),
       tight=st.booleans(), objective=st.sampled_from(["profit", "requests"]))
def test_packing_on_bit_masks_is_the_frozenset_packing(seed, n_pairs, workers, worker_cost,
                                                       fractional, tight, objective):
    rng = random.Random(seed)
    instance = synthetic_instance(rng, n_pairs=n_pairs,
                                  params=Parameters(worker_count=workers, worker_cost=worker_cost))
    if tight:
        instance = tight_windows(instance, rng)
    # vrc_frc prices a request at rate_per_min * rent + frc, with the rent
    # drawn from [rent_min, rent_max]; the integer revenues tie more often.
    model = RevenueModel(kind="vrc_frc")
    revenue = model.draw if fractional else (lambda g: float(g.randint(1, 4) * 10))
    instance = dataclasses.replace(instance, revenue_model=model if fractional else None, requests=tuple(
        dataclasses.replace(r, revenue=revenue(rng)) for r in instance.requests))
    limits, reference_limits = OracleLimits(), OracleLimits()
    solution = solve_exact(instance, objective, limits)
    assert solution == _frozenset_pack(instance, objective, reference_limits)
    assert limits.nodes == reference_limits.nodes
