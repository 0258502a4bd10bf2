"""Command-line harness: exit codes, file outputs, and console formats."""

import dataclasses
import hashlib
import json

import pytest

from conftest import single_pair_reference
from evrelo.cli import main
from evrelo.feasibility import validate_solution
from evrelo.generator import make_benchmark, small_instances
from evrelo.io import instance_to_dict, load_instance, load_solution, save_instance, save_solution
from evrelo.insertion import run_ch


@pytest.fixture
def instance_file(tmp_path):
    path = tmp_path / "reference.json"
    save_instance(single_pair_reference(), path)
    return path


@pytest.fixture
def bench_dir(tmp_path):
    directory = tmp_path / "bench"
    directory.mkdir()
    for i, inst in enumerate(small_instances(2, seed=2)):
        save_instance(inst, directory / f"small_{i + 1:03d}.json")
    return directory


def test_help_and_missing_subcommand():
    assert main(["--help"]) == 0
    assert main([]) == 1


# ---------------------------------------------------------------------------
# generate
# ---------------------------------------------------------------------------

def test_generate_writes_instance_files(tmp_path, capsys):
    out = tmp_path / "amat"
    assert main(["generate", "--set", "amat", "--count", "3", "--seed", "1",
                 "--out", str(out)]) == 0
    files = sorted(p.name for p in out.glob("*.json"))
    assert files == ["amat_001.json", "amat_002.json", "amat_003.json"]
    for name in files:
        assert load_instance(out / name).requests  # parses and is non-trivial
    stdout = capsys.readouterr().out
    assert "3 instances" in stdout


def test_generate_csv_listing(tmp_path, capsys):
    out = tmp_path / "vamat"
    assert main(["generate", "--set", "vamat", "--count", "2", "--seed", "0",
                 "--out", str(out), "--format", "csv"]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert lines[0] == "file,requests"
    assert len(lines) == 3


def test_generate_reruns_are_byte_identical(tmp_path):
    first, second = tmp_path / "a", tmp_path / "b"
    assert main(["generate", "--set", "amat", "--count", "2", "--seed", "7",
                 "--out", str(first)]) == 0
    assert main(["generate", "--set", "amat", "--count", "2", "--seed", "7",
                 "--out", str(second)]) == 0
    for name in ("amat_001.json", "amat_002.json"):
        assert (first / name).read_bytes() == (second / name).read_bytes()


def test_generate_rejects_unknown_set(tmp_path):
    assert main(["generate", "--set", "mystery", "--out", str(tmp_path / "x")]) == 1


# ---------------------------------------------------------------------------
# solve
# ---------------------------------------------------------------------------

def test_solve_writes_solution_beside_instance(instance_file, capsys):
    assert main(["solve", str(instance_file), "--algorithm", "ch",
                 "--objective", "requests"]) == 0
    out = instance_file.with_suffix(".ch.requests.solution.json")
    assert out.exists()
    solution = load_solution(out)
    inst = load_instance(instance_file)
    assert validate_solution(solution, inst).ok
    assert solution.served == frozenset({1, 2})
    stdout = capsys.readouterr().out
    assert "valid yes" in stdout
    assert "optimal n/a" in stdout


def test_solve_exact_reports_optimality(instance_file, tmp_path, capsys):
    out = tmp_path / "exact.json"
    assert main(["solve", str(instance_file), "--algorithm", "exact",
                 "--out", str(out)]) == 0
    assert load_solution(out).optimal is True
    assert "optimal yes" in capsys.readouterr().out


def test_solve_csv_format(instance_file, capsys):
    assert main(["solve", str(instance_file), "--algorithm", "nnh",
                 "--format", "csv"]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert lines[0].startswith("algorithm,objective,profit,served")
    assert lines[1].startswith("nnh,profit,")


def test_solve_same_seed_is_byte_identical(instance_file, tmp_path):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    for target in (a, b):
        assert main(["solve", str(instance_file), "--algorithm", "rh",
                     "--iterations", "50", "--seed", "9",
                     "--out", str(target)]) == 0
    assert a.read_bytes() == b.read_bytes()


# SHA-256 of the RH solution files (40 iterations, seed 3) for three
# make_benchmark("vamat_like", 30, seed=0) instances of 64, 46 and 59
# requests, recorded with the construction that rescanned every partner
# list at each step.  Same-seed output must stay byte-identical.
RH_VAMAT_SOLUTION_SHA256 = {
    21: "39a5f23c4c3fc18cf2404ff3123a723efb81da55674755f8a8cd9c7610187c29",
    27: "454f7bc313ffb93ec12cd838e33f1449076184175ee90426e9cdd47573e60de3",
    28: "25787ea4e840dfcbe37f915faa97a3fd9783bb2a00ae34ce9ace3e03e7e9a22c",
}


def test_solve_rh_output_matches_recorded_digests(tmp_path):
    instances = make_benchmark("vamat_like", 30, seed=0)
    for index, digest in RH_VAMAT_SOLUTION_SHA256.items():
        path, out = tmp_path / f"vamat_{index}.json", tmp_path / f"vamat_{index}.solution.json"
        save_instance(instances[index], path)
        assert main(["solve", str(path), "--algorithm", "rh", "--iterations", "40",
                     "--seed", "3", "--out", str(out)]) == 0
        assert hashlib.sha256(out.read_bytes()).hexdigest() == digest


# SHA-256 of the solution files of the other solvers, keyed by (algorithm,
# make_benchmark("amat_like", 30, seed=0) index, objective), recorded before
# the schedule recurrence was folded into one kernel.  Instance 2 (16
# requests) is one whose exact route start comes from the bisection branch
# of _latest_window_start, where reordered arithmetic could move a start by
# an ulp.
SOLVER_AMAT_SOLUTION_SHA256 = {
    ("nnh", 0, "profit"): "7319e8551c1bb02c925265498e9c19d291fbea50ed7087ae1a03311442354f9a",
    ("nnh", 28, "requests"): "27be3256170308b0fc78d9284d46b980934452dce42940c658ee0a199f4c010b",
    ("muh", 0, "profit"): "f835d7aca377255d07d8ed6aff74170871121d49318609f5adccd2e4225f0352",
    ("muh", 28, "requests"): "9c1419c4877470d8a6150e47aeb7b7f21fecef017a21c8d7dde8051ce5d770fb",
    ("ch", 0, "profit"): "19f1ef78152ce5fbb2ef7d6cac6dbd762f751ca877714a2a2696e40f0b6d4a2e",
    ("ch", 28, "requests"): "bbd51bcd07b21b823ce1cd694338c8fc9f193047cbad46be9e97a11a4a646443",
    ("exact", 2, "profit"): "2a95d256d552f06b805375d2a22b1572a1a0cff9ee4a80a5b732f5fbc6344cf5",
    ("exact", 19, "requests"): "f2c94c81dbaacfaa54a7d419db815f50904c4e9f55edb06eae9b378271522d8c",
}


def test_solve_other_solvers_output_matches_recorded_digests(tmp_path):
    instances = make_benchmark("amat_like", 30, seed=0)
    for (algorithm, index, objective), digest in SOLVER_AMAT_SOLUTION_SHA256.items():
        path = tmp_path / f"amat_{index}.json"
        out = tmp_path / f"amat_{index}.{algorithm}.{objective}.solution.json"
        save_instance(instances[index], path)
        assert main(["solve", str(path), "--algorithm", algorithm, "--objective", objective,
                     "--max-requests", "16", "--out", str(out)]) == 0
        assert hashlib.sha256(out.read_bytes()).hexdigest() == digest, (algorithm, index)


def test_solve_missing_instance_is_input_error(tmp_path):
    assert main(["solve", str(tmp_path / "absent.json")]) == 1


def test_solve_rejects_unknown_algorithm(instance_file):
    assert main(["solve", str(instance_file), "--algorithm", "simplex"]) == 1


def test_solve_oversized_for_exact_is_input_error(instance_file):
    assert main(["solve", str(instance_file), "--algorithm", "exact",
                 "--max-requests", "1"]) == 1


def test_solver_invariant_failure_is_exit_two(instance_file, monkeypatch, capsys):
    def corrupt_runner(name, instance, objective="profit", **kwargs):
        good = run_ch(instance, objective="requests")
        return dataclasses.replace(good, profit=good.profit + 5.0), 0.0

    monkeypatch.setattr("evrelo.cli.run_algorithm", corrupt_runner)
    assert main(["solve", str(instance_file), "--algorithm", "ch"]) == 2
    err = capsys.readouterr().err
    assert "internal error" in err
    assert "validator" in err


# ---------------------------------------------------------------------------
# validate
# ---------------------------------------------------------------------------

def test_validate_instance_and_solution(instance_file, tmp_path, capsys):
    inst = load_instance(instance_file)
    sol_path = tmp_path / "good.solution.json"
    save_solution(run_ch(inst, objective="requests"), sol_path)
    assert main(["validate", str(instance_file), "--solution", str(sol_path)]) == 0
    stdout = capsys.readouterr().out
    assert "OK" in stdout


def test_validate_flags_tampered_solution(instance_file, tmp_path, capsys):
    inst = load_instance(instance_file)
    sol_path = tmp_path / "bad.solution.json"
    save_solution(run_ch(inst, objective="requests"), sol_path)
    doc = json.loads(sol_path.read_text(encoding="utf-8"))
    doc["routes"][0]["visits"][0]["arrival"] += 5.0
    sol_path.write_text(json.dumps(doc), encoding="utf-8")
    assert main(["validate", str(instance_file), "--solution", str(sol_path)]) == 1
    assert "violation" in capsys.readouterr().err


def test_validate_has_no_format_option(instance_file, capsys):
    assert main(["validate", str(instance_file), "--format", "csv"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "--format" in captured.err


def test_validate_flags_broken_instance_document(tmp_path, capsys):
    path = tmp_path / "corrupt.json"
    path.write_text("{not json", encoding="utf-8")
    assert main(["validate", str(path)]) == 1
    assert "error" in capsys.readouterr().err


@pytest.mark.parametrize("edits, messages", [
    ({"rent_min": 20.0, "rent_max": 10.0},
     ["revenue_model.rent_min 20.0 exceeds rent_max 10.0"]),
    ({"amount": float("nan"), "frc": float("inf")},
     ["revenue_model.amount must be finite, got nan",
      "revenue_model.frc must be finite, got inf"]),
    ({"kind": "per_km"},
     ["revenue_model.kind must be one of flat, vrc_frc, got 'per_km'"]),
])
def test_validate_reports_a_broken_revenue_model(tmp_path, capsys, edits, messages):
    doc = instance_to_dict(make_benchmark("vamat_like", 1, seed=0)[0])
    doc["revenue_model"].update(edits)
    path = tmp_path / "priced.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    assert main(["validate", str(path)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: {'; '.join(messages)}\n"


# ---------------------------------------------------------------------------
# compare
# ---------------------------------------------------------------------------

def test_compare_writes_csv_table(bench_dir, capsys):
    assert main(["compare", str(bench_dir), "--algorithms", "nnh,ch",
                 "--objective", "requests", "--iterations", "5"]) == 0
    table = (bench_dir / "comparison.csv").read_text(encoding="utf-8").splitlines()
    assert table[0].startswith("instance,reference_objective,nnh_objective")
    assert table[-1].startswith("AVERAGE,")
    assert "compared nnh, ch against exact" in capsys.readouterr().out


def test_compare_csv_format_echoes_table(bench_dir, capsys):
    assert main(["compare", str(bench_dir), "--algorithms", "nnh",
                 "--objective", "requests", "--iterations", "5",
                 "--format", "csv"]) == 0
    stdout = capsys.readouterr().out
    assert stdout.splitlines()[0].startswith("instance,reference_objective")


def test_compare_rejects_unknown_algorithm(bench_dir):
    assert main(["compare", str(bench_dir), "--algorithms", "nnh,magic"]) == 1


def test_compare_empty_directory_is_input_error(tmp_path, capsys):
    empty = tmp_path / "empty"
    empty.mkdir()
    assert main(["compare", str(empty)]) == 1
    assert "no instance files" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# sensitivity
# ---------------------------------------------------------------------------

@pytest.fixture
def vamat_dir(tmp_path):
    directory = tmp_path / "vamat"
    assert main(["generate", "--set", "vamat", "--count", "2", "--seed", "3",
                 "--out", str(directory)]) == 0
    return directory


def test_sensitivity_frc_sweep(vamat_dir, capsys):
    assert main(["sensitivity", str(vamat_dir), "--sweep", "frc",
                 "--frc-values", "0,15", "--algorithm", "ch"]) == 0
    table = (vamat_dir / "sensitivity_frc.csv").read_text(encoding="utf-8").splitlines()
    assert table[0] == "parameter,value,instance,algorithm,profit,served,served_pct,workers,cpu_s"
    assert sum(1 for line in table if ",AVERAGE," in line) == 2
    assert "frc sweep with ch" in capsys.readouterr().out


def test_sensitivity_size_sweep(bench_dir):
    assert main(["sensitivity", str(bench_dir), "--sweep", "size",
                 "--algorithm", "nnh", "--objective", "requests"]) == 0
    table = (bench_dir / "sensitivity_size.csv").read_text(encoding="utf-8").splitlines()
    data = [line.split(",") for line in table[1:] if ",AVERAGE," not in line]
    assert len(data) == 2
    for row in data:
        assert row[0] == "size"
        assert int(row[1]) == len(load_instance(bench_dir / row[2]).requests)
    assert any(",AVERAGE," in line for line in table)


def test_sensitivity_rejects_bad_frc_values(vamat_dir):
    assert main(["sensitivity", str(vamat_dir), "--sweep", "frc",
                 "--frc-values", "a,b"]) == 1


@pytest.mark.parametrize("value", ["nan", "-1", "inf", "0,-inf"])
def test_sensitivity_rejects_a_non_finite_or_negative_frc(vamat_dir, capsys, value):
    # Refused before any solve: no CSV is written.
    assert main(["sensitivity", str(vamat_dir), "--sweep", "frc", "--frc-values", value]) == 1
    err = capsys.readouterr().err
    assert "Error: vamat_001.json: fixed revenue component must be finite and non-negative" in err
    assert "Traceback" not in err
    assert not (vamat_dir / "sensitivity_frc.csv").exists()


def test_sensitivity_frc_sweep_refuses_a_flat_revenue_instance(tmp_path, capsys):
    # The amat set has flat revenues: there is no fixed component to sweep.
    directory = tmp_path / "amat"
    assert main(["generate", "--set", "amat", "--count", "2", "--seed", "0",
                 "--out", str(directory)]) == 0
    capsys.readouterr()
    assert main(["sensitivity", str(directory), "--sweep", "frc"]) == 1
    err = capsys.readouterr().err
    assert "Error: amat_001.json: repricing requires a variable-revenue instance" in err
    assert "Traceback" not in err
    assert not (directory / "sensitivity_frc.csv").exists()
