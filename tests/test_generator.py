"""Instance generation: simulation invariants, benchmark collections,
oracle-sized miniatures, and revenue repricing."""

import hashlib
import math

import pytest

from evrelo.errors import DegenerateConfig
from evrelo.generator import (
    GeneratorConfig,
    generate,
    make_benchmark,
    profit_demo_instance,
    reprice_frc,
    small_instances,
)
from evrelo.io import save_instance
from evrelo.model import RequestKind


def _counts(instance):
    pickups = sum(1 for r in instance.requests if r.kind is RequestKind.PICKUP)
    return pickups, len(instance.requests) - pickups


# ---------------------------------------------------------------------------
# Simulation invariants.
# ---------------------------------------------------------------------------

def test_generate_deterministic_per_seed():
    cfg = GeneratorConfig(stations=6, capacity=3, fleet=9, horizon=120.0,
                          demand_rate=0.8, seed=42)
    assert generate(cfg) == generate(cfg)
    other = generate(GeneratorConfig(stations=6, capacity=3, fleet=9,
                                     horizon=120.0, demand_rate=0.8, seed=43))
    assert other != generate(cfg)


def test_generate_zero_demand_is_empty():
    cfg = GeneratorConfig(stations=6, capacity=3, fleet=9, horizon=240.0,
                          demand_rate=0.0, seed=1)
    assert generate(cfg).requests == ()


def test_generate_without_fleet_emits_only_deliveries():
    cfg = GeneratorConfig(stations=6, capacity=3, fleet=0, horizon=120.0,
                          demand_rate=1.0, seed=1)
    inst = generate(cfg)
    assert len(inst.requests) > 0
    assert all(r.kind is RequestKind.DELIVERY for r in inst.requests)


def test_generate_starved_fleet_is_delivery_dominated():
    for seed in range(3):
        cfg = GeneratorConfig(stations=8, capacity=4, fleet=2, horizon=240.0,
                              demand_rate=1.0, seed=seed)
        pickups, deliveries = _counts(generate(cfg))
        assert deliveries > 10 * max(pickups, 1)


def test_generated_requests_are_well_formed():
    cfg = GeneratorConfig(stations=8, capacity=4, fleet=16, horizon=240.0,
                          demand_rate=0.8, seed=7)
    inst = generate(cfg)
    assert len(inst.requests) > 0
    for i, r in enumerate(inst.requests):
        assert r.id == i + 1
        assert r.location == i + 1
        assert 0.0 <= r.battery <= 1.0
        assert 0.0 <= r.tw_min < r.tw_max <= cfg.horizon
        assert r.revenue > 0.0
    n = len(inst.requests) + 1
    assert len(inst.distances) == n
    for i in range(n):
        assert inst.distances[i][i] == 0.0
        for j in range(n):
            assert inst.distances[i][j] == pytest.approx(inst.distances[j][i])
    # road distances are scaled straight lines, so triangles stay triangles
    for i in range(0, n, 3):
        for j in range(0, n, 3):
            for k in range(0, n, 3):
                assert inst.distances[i][j] <= (
                    inst.distances[i][k] + inst.distances[k][j] + 1e-9)


def test_generate_records_provenance():
    cfg = GeneratorConfig(stations=6, capacity=3, fleet=9, horizon=120.0,
                          demand_rate=0.5, seed=99)
    inst = generate(cfg)
    assert inst.provenance["seed"] == 99
    assert inst.provenance["stations"] == 6
    assert inst.provenance["demand_rate"] == 0.5


def test_config_validation():
    bad = [
        dict(stations=0),
        dict(capacity=0),
        dict(stations=2, capacity=1, fleet=3),
        dict(horizon=0.0),
        dict(demand_rate=-0.1),
        dict(area_km=0.0),
    ]
    # A NaN fails every comparison and an infinity passes a lower bound, so
    # each must be refused by name rather than leak from numpy or ``int()``.
    for name in ("horizon", "demand_rate", "area_km"):
        for value in (math.nan, math.inf, -math.inf):
            bad.append({name: value})
    for kwargs in bad:
        with pytest.raises(DegenerateConfig):
            GeneratorConfig(**kwargs)


# The SHA-256 of the ``save_instance`` files of each set, in order, at set
# seeds 0 and 1.  A faster generator must still write these bytes.
_SET_DIGESTS = {
    ("small", 0): "80e67fef70fab1f406493081782ad318ebadd3460cae5d798f36a79b45ddaca5",
    ("amat_like", 0): "176b688f9f232ea23d9c285a1ea4c82b68990320b3256ee245848f8e84858895",
    ("vamat_like", 0): "79699293da6ea3905856561208666bc3265ba46b469155390d206c46ac07def1",
    ("single_station", 0): "6b708132494ffeed055480b2741ef79ee1ba62b307983738ab227f8441a10131",
    ("zero_demand", 0): "8cc375e8a632214e35193a9b5d4cf880fdb61c7fbab2e9dc188601da231aa756",
    ("small", 1): "957e2ffc06c14b83912e4a874a20fa1624ed8eca61fd723666d5b45cd5ecf95c",
    ("amat_like", 1): "9275a82c7b431296c015b034512fb988dcfab834a31b35510cf02a37ffdb9760",
    ("vamat_like", 1): "49505cfacf4ef61354f2a9ffe0b694026aab8714acb44ebe1d5105a8e17ee3f0",
    ("single_station", 1): "9a415845f3f70ade27777644f550698058308a57435470c9023c10d40377e8ba",
    ("zero_demand", 1): "10e4fa95d1b3cdb6f5a3492c7af77b1a7349d0746802837afc59067cb20b835f",
}


def _make_set(name, seed):
    if name == "small":
        return small_instances(100, seed=seed)
    if name == "single_station":  # no trip distribution at all
        return (generate(GeneratorConfig(stations=1, capacity=4, fleet=2, horizon=120.0,
                                         demand_rate=0.8, seed=seed)),)
    if name == "zero_demand":  # a trip distribution that is never drawn from
        return (generate(GeneratorConfig(stations=6, capacity=3, fleet=9, horizon=240.0,
                                         demand_rate=0.0, seed=seed)),)
    return make_benchmark(name, 30, seed=seed)


@pytest.mark.parametrize("name, seed", sorted(_SET_DIGESTS))
def test_generated_files_keep_their_bytes(tmp_path, name, seed):
    digest = hashlib.sha256()
    for k, instance in enumerate(_make_set(name, seed)):
        path = tmp_path / f"{k}.json"
        save_instance(instance, path)
        digest.update(path.read_bytes())
    assert digest.hexdigest() == _SET_DIGESTS[name, seed]


# ---------------------------------------------------------------------------
# Benchmark collections.
# ---------------------------------------------------------------------------

def test_flat_benchmark_sizes_in_expected_band():
    instances = make_benchmark("amat_like", 30, seed=0)
    assert len(instances) == 30
    mean = sum(len(i.requests) for i in instances) / 30
    assert 18.0 <= mean <= 26.0
    for inst in instances:
        assert inst.revenue_model.kind == "flat"
        assert all(r.revenue == 20.0 for r in inst.requests)


def test_variable_benchmark_sizes_sweep_upward():
    instances = make_benchmark("vamat_like", 30, seed=0)
    sizes = [len(i.requests) for i in instances]
    assert min(sizes) < 20
    assert max(sizes) > 35
    assert sum(sizes[-10:]) / 10 > sum(sizes[:10]) / 10 + 5
    for inst in instances:
        assert inst.revenue_model.kind == "vrc_frc"
        for r in inst.requests:
            assert 16.45 - 1e-9 <= r.revenue <= 19.35 + 1e-9


def test_benchmark_reproducible_and_seed_sensitive():
    assert make_benchmark("amat_like", 3, seed=5) == make_benchmark("amat_like", 3, seed=5)
    assert make_benchmark("amat_like", 3, seed=5) != make_benchmark("amat_like", 3, seed=6)


def test_benchmark_single_instance_and_validation():
    (only,) = make_benchmark("vamat_like", 1, seed=2)
    assert len(only.requests) > 0
    with pytest.raises(ValueError):
        make_benchmark("amat_like", 0)
    with pytest.raises(ValueError):
        make_benchmark("mystery", 3)


# ---------------------------------------------------------------------------
# Oracle-sized miniatures.
# ---------------------------------------------------------------------------

def test_small_instances_balanced_and_capped():
    batch = small_instances(20, seed=0)
    assert len(batch) == 20
    nonempty = 0
    for inst in batch:
        pickups, deliveries = _counts(inst)
        assert pickups == deliveries
        assert pickups <= 4
        nonempty += bool(inst.requests)
        for i, r in enumerate(inst.requests):
            assert r.id == i + 1 and r.location == i + 1
        assert len(inst.distances) == len(inst.requests) + 1
        assert inst.provenance["truncated_to"] == [pickups, deliveries]
    assert nonempty >= 18


def test_small_instances_deterministic():
    assert small_instances(5, seed=3) == small_instances(5, seed=3)
    assert small_instances(5, seed=3) != small_instances(5, seed=4)


# ---------------------------------------------------------------------------
# Revenue repricing.
# ---------------------------------------------------------------------------

def test_reprice_shifts_fixed_component():
    (inst,) = make_benchmark("vamat_like", 1, seed=4)
    flat0 = reprice_frc(inst, 0.0)
    assert flat0.revenue_model.frc == 0.0
    for before, after in zip(inst.requests, flat0.requests):
        assert after.revenue == pytest.approx(before.revenue - 15.0)
    back = reprice_frc(flat0, 15.0)
    assert back == inst


def test_reprice_requires_variable_revenue():
    (inst,) = make_benchmark("amat_like", 1, seed=4)
    with pytest.raises(ValueError):
        reprice_frc(inst, 5.0)
    (vinst,) = make_benchmark("vamat_like", 1, seed=4)
    with pytest.raises(ValueError):
        reprice_frc(vinst, -1.0)


@pytest.mark.parametrize("frc", [math.nan, math.inf, -math.inf])
def test_reprice_refuses_a_non_finite_component(frc):
    (inst,) = make_benchmark("vamat_like", 1, seed=4)
    with pytest.raises(ValueError, match="fixed revenue component must be finite and non-negative"):
        reprice_frc(inst, frc)


# ---------------------------------------------------------------------------
# Hand-built demonstration instance.
# ---------------------------------------------------------------------------

def test_profit_demo_shape():
    inst = profit_demo_instance()
    pickups, deliveries = _counts(inst)
    assert pickups == 5 and deliveries == 5
    assert inst.parameters.worker_count == 2
    assert all(math.isfinite(r.revenue) for r in inst.requests)
