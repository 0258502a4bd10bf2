"""Benchmark tables.

Runs algorithms over instance collections and lays the results out as CSV:
a wide comparison table (one row per instance, one column group per
algorithm, final AVERAGE row) and a long sensitivity table (one row per
instance / parameter value / algorithm, AVERAGE rows per value).  Gap
columns sit next to the raw objective values they were computed from.
"""

from __future__ import annotations

import csv
import time
from dataclasses import dataclass

from .errors import InstanceTooLarge
from .exact import OracleLimits, optimality_gap, solve_exact
from .generator import reprice_frc
from .greedy import GreedyPolicy, run_greedy
from .insertion import RhConfig, run_ch, run_rh
from .model import check_objective, objective_value

ALGORITHMS = ("nnh", "muh", "ch", "rh", "exact")
_GREEDY_POLICIES = {"nnh": GreedyPolicy.NEAREST, "muh": GreedyPolicy.MOST_URGENT}


def run_algorithm(name, instance, objective="profit", seed=0, iterations=10000, limits=None):
    """Run one solver and return (solution, wall seconds of the call)."""
    check_objective(objective)
    started = time.perf_counter()
    if name in _GREEDY_POLICIES:
        solution = run_greedy(
            instance, _GREEDY_POLICIES[name], drop_unprofitable=objective == "profit"
        )
    elif name == "ch":
        solution = run_ch(instance, objective=objective)
    elif name == "rh":
        solution = run_rh(instance, RhConfig(iterations=iterations, seed=seed, objective=objective))
    elif name == "exact":
        solution = solve_exact(instance, objective=objective, limits=limits or OracleLimits())
    else:
        raise ValueError(f"unknown algorithm {name!r}")
    return solution, time.perf_counter() - started


@dataclass(frozen=True)
class ComparisonRow:
    """One algorithm's result on one instance, against the reference."""

    instance: str
    algorithm: str
    objective_value: float
    reference_value: float
    gap_pct: float | None
    delta_workers: int
    cpu_seconds: float


@dataclass(frozen=True)
class SensitivityRow:
    """One algorithm's result on one instance at one swept value."""

    parameter: str
    value: float
    instance: str
    algorithm: str
    profit: float
    served: int
    served_pct: float
    workers: int
    cpu_seconds: float


def compare_table(labeled_instances, algorithms, objective="profit", reference="exact",
                  seed=0, iterations=10000, limits=None):
    """Rows of every algorithm against the reference solver.

    ``labeled_instances`` is a sequence of (label, instance).  Instances the
    reference cannot handle (too many requests for the exact search) are
    skipped; their labels are returned separately for warning output.
    """
    rows = []
    skipped = []
    for label, instance in labeled_instances:
        try:
            ref_solution, ref_cpu = run_algorithm(
                reference, instance, objective, seed=seed, iterations=iterations, limits=limits
            )
        except InstanceTooLarge as exc:
            skipped.append((label, str(exc)))
            continue
        ref_value = objective_value(ref_solution, objective)
        for name in algorithms:
            if name == reference:
                solution, cpu = ref_solution, ref_cpu
            else:
                solution, cpu = run_algorithm(
                    name, instance, objective, seed=seed, iterations=iterations, limits=limits
                )
            rows.append(
                ComparisonRow(
                    instance=label,
                    algorithm=name,
                    objective_value=objective_value(solution, objective),
                    reference_value=ref_value,
                    gap_pct=optimality_gap(solution, ref_solution, objective),
                    delta_workers=len(ref_solution.routes) - len(solution.routes),
                    cpu_seconds=cpu,
                )
            )
    return rows, skipped


def _mean(values):
    values = list(values)
    return sum(values) / len(values) if values else None


def _fmt(value, spec=None):
    if value is None:
        return ""
    if spec is None:
        return repr(float(value))
    return format(value, spec)


def write_comparison_csv(rows, algorithms, path):
    """Wide layout: one row per instance, a column group per algorithm,
    and a final AVERAGE row."""
    by_instance = {}
    for row in rows:
        by_instance.setdefault(row.instance, {})[row.algorithm] = row
    header = ["instance", "reference_objective"]
    for name in algorithms:
        header += [
            f"{name}_objective",
            f"{name}_gap_pct",
            f"{name}_delta_workers",
            f"{name}_cpu_s",
        ]
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, delimiter=",")
        writer.writerow(header)
        for label in sorted(by_instance):
            cells = by_instance[label]
            first = next(iter(cells.values()))
            line = [label, _fmt(first.reference_value)]
            for name in algorithms:
                row = cells.get(name)
                if row is None:
                    line += ["", "", "", ""]
                else:
                    line += [
                        _fmt(row.objective_value),
                        _fmt(row.gap_pct, ".4f"),
                        str(row.delta_workers),
                        _fmt(row.cpu_seconds, ".3f"),
                    ]
            writer.writerow(line)
        refs = [next(iter(cells.values())).reference_value for cells in by_instance.values()]
        line = ["AVERAGE", _fmt(_mean(refs))]
        for name in algorithms:
            algo_rows = [r for r in rows if r.algorithm == name]
            line += [
                _fmt(_mean(r.objective_value for r in algo_rows)),
                _fmt(_mean(r.gap_pct for r in algo_rows if r.gap_pct is not None), ".4f"),
                _fmt(_mean(r.delta_workers for r in algo_rows), ".2f"),
                _fmt(_mean(r.cpu_seconds for r in algo_rows), ".3f"),
            ]
        writer.writerow(line)


def _sensitivity_row(parameter, value, label, instance, algorithm, objective, **run):
    """Solve ``instance`` with ``algorithm`` and report it at the swept value."""
    solution, cpu = run_algorithm(algorithm, instance, objective, **run)
    total = len(instance.requests)
    return SensitivityRow(
        parameter=parameter,
        value=float(value),
        instance=label,
        algorithm=algorithm,
        profit=solution.profit,
        served=len(solution.served),
        served_pct=100.0 * len(solution.served) / total if total else 0.0,
        workers=len(solution.routes),
        cpu_seconds=cpu,
    )


def frc_sweep(labeled_instances, frc_values, algorithm="rh", seed=0, iterations=10000,
              limits=None, objective="profit"):
    """Re-price the fixed revenue component and re-solve at every value."""
    return [
        _sensitivity_row("frc", value, label, reprice_frc(instance, value), algorithm, objective,
                         seed=seed, iterations=iterations, limits=limits)
        for value in frc_values
        for label, instance in labeled_instances
    ]


def size_sweep(labeled_instances, algorithm="rh", seed=0, iterations=10000,
               limits=None, objective="profit"):
    """Solve each instance and report against its size (request count)."""
    return [
        _sensitivity_row("size", len(instance.requests), label, instance, algorithm, objective,
                         seed=seed, iterations=iterations, limits=limits)
        for label, instance in labeled_instances
    ]


def write_sensitivity_csv(rows, path):
    """Long layout plus AVERAGE rows per (parameter value, algorithm)."""
    header = [
        "parameter",
        "value",
        "instance",
        "algorithm",
        "profit",
        "served",
        "served_pct",
        "workers",
        "cpu_s",
    ]
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, delimiter=",")
        writer.writerow(header)
        for row in rows:
            writer.writerow(
                [
                    row.parameter,
                    _fmt(row.value, "g"),
                    row.instance,
                    row.algorithm,
                    _fmt(row.profit, ".2f"),
                    str(row.served),
                    _fmt(row.served_pct, ".2f"),
                    str(row.workers),
                    _fmt(row.cpu_seconds, ".3f"),
                ]
            )
        groups = {}
        for row in rows:
            groups.setdefault((row.parameter, row.value, row.algorithm), []).append(row)
        for (parameter, value, algorithm), members in sorted(groups.items()):
            writer.writerow(
                [
                    parameter,
                    _fmt(value, "g"),
                    "AVERAGE",
                    algorithm,
                    _fmt(_mean(r.profit for r in members), ".2f"),
                    _fmt(_mean(r.served for r in members), ".2f"),
                    _fmt(_mean(r.served_pct for r in members), ".2f"),
                    _fmt(_mean(r.workers for r in members), ".2f"),
                    _fmt(_mean(r.cpu_seconds for r in members), ".3f"),
                ]
            )
