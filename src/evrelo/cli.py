"""Command-line front end.

Subcommands: ``generate`` (benchmark instances), ``solve`` (one instance,
one algorithm), ``validate`` (instance or solution files), ``compare``
(algorithms vs a reference over a benchmark directory) and ``sensitivity``
(parameter sweeps).  Exit codes: 0 success, 1 bad input, 2 internal
invariant failure (a solver produced a solution its own validator rejects).
"""

from __future__ import annotations

import sys
from pathlib import Path

import click

from .errors import EvreloError
from .exact import OracleLimits
from .feasibility import validate_solution
from .generator import make_benchmark, reprice_frc
from .io import load_instance, load_solution, save_instance, save_solution
from .model import OBJECTIVES
from .reporting import (
    ALGORITHMS,
    compare_table,
    frc_sweep,
    run_algorithm,
    size_sweep,
    write_comparison_csv,
    write_sensitivity_csv,
)


class _SolverCheckFailure(Exception):
    """A solver emitted a solution that fails its own validator."""


_FORMAT = click.option(
    "--format", "fmt", type=click.Choice(["csv", "text"]), default="text",
    show_default=True, help="Console output style.",
)
_OBJECTIVE = click.option(
    "--objective", type=click.Choice(list(OBJECTIVES)), default="profit", show_default=True,
)
_ITERATIONS = click.option(
    "--iterations", type=click.IntRange(min=1), default=10000, show_default=True,
    help="Most randomized restarts (rh only); rh stops sooner, with the same "
         "result, once its draws can reach no construction it has not built.",
)


@click.group()
def cli():
    """EV relocation solver harness."""


@cli.command()
@click.option("--set", "set_name", type=click.Choice(["amat", "vamat"]), required=True,
              help="Benchmark family to generate.")
@click.option("--count", type=click.IntRange(min=1), default=30, show_default=True)
@click.option("--seed", type=int, default=0, show_default=True)
@click.option("--out", type=click.Path(file_okay=False, path_type=Path), required=True,
              help="Directory receiving the instance files.")
@_FORMAT
def generate(set_name, count, seed, out, fmt):
    """Write a reproducible benchmark set as JSON instance files."""
    instances = make_benchmark(f"{set_name}_like", count, seed=seed)
    out.mkdir(parents=True, exist_ok=True)
    lines = []
    for i, instance in enumerate(instances):
        path = out / f"{set_name}_{i + 1:03d}.json"
        save_instance(instance, path)
        lines.append((path.name, len(instance.requests)))
    if fmt == "csv":
        click.echo("file,requests")
        for name, n in lines:
            click.echo(f"{name},{n}")
    else:
        for name, n in lines:
            click.echo(f"wrote {name}: {n} requests")
        click.echo(f"{len(lines)} instances in {out}")


@cli.command()
@click.argument("instance_path", type=click.Path(exists=True, dir_okay=False, path_type=Path))
@click.option("--algorithm", type=click.Choice(list(ALGORITHMS)), default="rh",
              show_default=True)
@_OBJECTIVE
@_ITERATIONS
@click.option("--seed", type=int, default=0, show_default=True)
@click.option("--max-requests", type=click.IntRange(min=0), default=10, show_default=True,
              help="Instance size cap of the exact search (exact only).")
@click.option("--out", type=click.Path(dir_okay=False, path_type=Path), default=None,
              help="Solution file path [default: next to the instance].")
@_FORMAT
def solve(instance_path, algorithm, objective, iterations, seed, max_requests, out, fmt):
    """Solve one instance file and write the solution next to it."""
    instance = load_instance(instance_path)
    limits = OracleLimits(max_requests=max_requests)
    solution, solver_seconds = run_algorithm(
        algorithm, instance, objective, seed=seed, iterations=iterations, limits=limits
    )
    result = validate_solution(solution, instance)
    if out is None:
        out = instance_path.with_suffix(f".{algorithm}.{objective}.solution.json")
    save_solution(solution, out)
    served_pct = 100.0 * len(solution.served) / len(instance.requests) if instance.requests else 0.0
    optimal = {True: "yes", False: "no", None: "n/a"}[solution.optimal]
    if fmt == "csv":
        click.echo("algorithm,objective,profit,served,requests,served_pct,workers,valid,optimal,solver_s")
        click.echo(
            f"{algorithm},{objective},{solution.profit!r},{len(solution.served)},"
            f"{len(instance.requests)},{served_pct:.2f},{len(solution.routes)},"
            f"{'yes' if result.ok else 'no'},{optimal},{solver_seconds:.3f}"
        )
    else:
        click.echo(
            f"{algorithm} ({objective}): profit {solution.profit:.2f}, "
            f"served {len(solution.served)}/{len(instance.requests)} ({served_pct:.1f}%), "
            f"workers {len(solution.routes)}, valid {'yes' if result.ok else 'NO'}, "
            f"optimal {optimal}, {solver_seconds:.3f}s -> {out}"
        )
    if not result.ok:
        for violation in result.violations:
            click.echo(f"validator: {violation}", err=True)
        raise _SolverCheckFailure(f"{algorithm} produced an invalid solution")


@cli.command()
@click.argument("instance_path", type=click.Path(exists=True, dir_okay=False, path_type=Path))
@click.option("--solution", "solution_path", default=None,
              type=click.Path(exists=True, dir_okay=False, path_type=Path),
              help="Also check this solution file against the instance.")
def validate(instance_path, solution_path):
    """Check an instance file (and optionally a solution) for violations."""
    instance = load_instance(instance_path)
    click.echo(f"instance {instance_path.name}: {len(instance.requests)} requests, OK")
    if solution_path is not None:
        solution = load_solution(solution_path)
        result = validate_solution(solution, instance)
        if not result.ok:
            for violation in result.violations:
                click.echo(f"violation: {violation}", err=True)
            raise EvreloError(
                f"solution {solution_path.name}: {len(result.violations)} violations"
            )
        click.echo(f"solution {solution_path.name}: OK")


def _load_directory(bench_dir):
    paths = sorted(p for p in bench_dir.glob("*.json") if not p.name.endswith(".solution.json"))
    if not paths:
        raise EvreloError(f"no instance files in {bench_dir}")
    return [(p.name, load_instance(p)) for p in paths]


@cli.command()
@click.argument("bench_dir", type=click.Path(exists=True, file_okay=False, path_type=Path))
@click.option("--algorithms", default="nnh,muh,ch,rh", show_default=True,
              help="Comma-separated algorithm list.")
@_OBJECTIVE
@click.option("--reference", type=click.Choice(list(ALGORITHMS)), default="exact",
              show_default=True)
@_ITERATIONS
@click.option("--seed", type=int, default=0, show_default=True)
@click.option("--max-requests", type=click.IntRange(min=0), default=10, show_default=True)
@click.option("--out", type=click.Path(dir_okay=False, path_type=Path), default=None,
              help="CSV path [default: comparison.csv inside the benchmark dir].")
@_FORMAT
def compare(bench_dir, algorithms, objective, reference, iterations, seed, max_requests, out, fmt):
    """Run several algorithms against a reference over a benchmark directory."""
    names = [a.strip() for a in algorithms.split(",") if a.strip()]
    unknown = [a for a in names if a not in ALGORITHMS]
    if unknown:
        raise click.UsageError(f"unknown algorithms: {', '.join(unknown)}")
    instances = _load_directory(bench_dir)
    rows, skipped = compare_table(
        instances, names, objective=objective, reference=reference,
        seed=seed, iterations=iterations, limits=OracleLimits(max_requests=max_requests),
    )
    for label, reason in skipped:
        click.echo(f"warning: skipping {label}: {reason}", err=True)
    if out is None:
        out = bench_dir / "comparison.csv"
    write_comparison_csv(rows, names, out)
    if fmt == "csv":
        click.echo(Path(out).read_text(encoding="utf-8"), nl=False)
    else:
        done = len({r.instance for r in rows})
        click.echo(
            f"compared {', '.join(names)} against {reference} ({objective}) "
            f"on {done} instances ({len(skipped)} skipped) -> {out}"
        )


@cli.command()
@click.argument("bench_dir", type=click.Path(exists=True, file_okay=False, path_type=Path))
@click.option("--sweep", type=click.Choice(["frc", "size"]), required=True)
@click.option("--frc-values", default="0,5,10,15,20", show_default=True,
              help="Fixed revenue component values for the frc sweep.")
@click.option("--algorithm", type=click.Choice(list(ALGORITHMS)), default="rh",
              show_default=True)
@_OBJECTIVE
@_ITERATIONS
@click.option("--seed", type=int, default=0, show_default=True)
@click.option("--max-requests", type=click.IntRange(min=0), default=10, show_default=True)
@click.option("--out", type=click.Path(dir_okay=False, path_type=Path), default=None,
              help="CSV path [default: sensitivity_<sweep>.csv inside the benchmark dir].")
@_FORMAT
def sensitivity(bench_dir, sweep, frc_values, algorithm, objective, iterations, seed,
                max_requests, out, fmt):
    """Sweep the fixed revenue component, or tabulate results by size."""
    instances = _load_directory(bench_dir)
    limits = OracleLimits(max_requests=max_requests)
    if sweep == "frc":
        try:
            values = [float(v) for v in frc_values.split(",") if v.strip()]
        except ValueError as exc:
            raise click.UsageError(f"bad --frc-values: {exc}")
        if not values:
            raise click.UsageError("--frc-values must name at least one value")
        # Refuse before any solve what reprice_frc would refuse mid-sweep.
        for label, instance in instances:
            for value in values:
                try:
                    reprice_frc(instance, value)
                except ValueError as exc:
                    raise click.UsageError(f"{label}: {exc}")
        rows = frc_sweep(
            instances, values, algorithm=algorithm, seed=seed,
            iterations=iterations, limits=limits, objective=objective,
        )
    else:
        rows = size_sweep(
            instances, algorithm=algorithm, seed=seed,
            iterations=iterations, limits=limits, objective=objective,
        )
    if out is None:
        out = bench_dir / f"sensitivity_{sweep}.csv"
    write_sensitivity_csv(rows, out)
    if fmt == "csv":
        click.echo(Path(out).read_text(encoding="utf-8"), nl=False)
    else:
        click.echo(
            f"{sweep} sweep with {algorithm} ({objective}) over {len(instances)} "
            f"instances: {len(rows)} rows -> {out}"
        )


def main(argv=None):
    """Entry point mapping every failure to the documented exit codes."""
    try:
        cli.main(args=argv, standalone_mode=False)
    except click.exceptions.Exit as exc:
        return exc.exit_code
    except click.ClickException as exc:
        exc.show(file=sys.stderr)
        return 1
    except _SolverCheckFailure as exc:
        click.echo(f"internal error: {exc}", err=True)
        return 2
    except EvreloError as exc:
        click.echo(f"error: {exc}", err=True)
        return 1
    except OSError as exc:
        click.echo(f"error: {exc}", err=True)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
