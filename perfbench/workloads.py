"""The three benchmark workloads: set-up and one pass over the solves.

Every call into evrelo goes through a module attribute looked up at call
time (``reporting.run_algorithm``, ``io.load_instance``, ...), so a traced
pass reaches the wrappers that ``tracing.Tracer`` installed and an untraced
pass reaches the unpatched functions.
"""

from __future__ import annotations

import contextlib
import hashlib
import io as stdio
import shutil
from dataclasses import dataclass, field
from time import perf_counter

from evrelo import cli, exact, feasibility, generator, io, reporting


@dataclass(frozen=True)
class Spec:
    """Fixed size of a workload.  ``tiny`` variants exist for the smoke test."""

    name: str
    family: str          # "small", "amat_like" or "vamat_like"
    count: int           # instances generated and saved
    iterations: int      # RH iterations per solve
    objectives: tuple
    min_passes: int      # passes every run makes at least
    max_requests: int = 0  # exact-search cap (compare_amat only)


SPECS = {
    "rh_small_fleet": Spec("rh_small_fleet", "small", 100, 40, ("profit", "requests"), 4),
    "rh_vamat": Spec("rh_vamat", "vamat_like", 30, 8, ("profit",), 4),
    "compare_amat": Spec("compare_amat", "amat_like", 30, 20, ("profit",), 4, max_requests=16),
}

TINY = {
    "rh_small_fleet": Spec("rh_small_fleet", "small", 3, 4, ("profit", "requests"), 1),
    "rh_vamat": Spec("rh_vamat", "vamat_like", 2, 2, ("profit",), 1),
    "compare_amat": Spec("compare_amat", "amat_like", 4, 2, ("profit",), 1, max_requests=16),
}

COMPARE_ALGORITHMS = ("nnh", "muh", "ch", "rh")


@dataclass
class Solve:
    """One solver call of a pass, checked and written."""

    label: str
    algorithm: str
    objective: str
    seconds: float
    profit: float = 0.0
    served: int = 0
    ok: bool = False
    digest: str = ""
    error: str = ""


@dataclass
class Pass:
    wall_s: float
    solves: list
    skipped: int = 0
    errors: list = field(default_factory=list)
    rh_gaps: list = field(default_factory=list)


@dataclass
class Loaded:
    """What set-up hands to the passes."""

    spec: Spec
    set_dir: object
    out_dir: object
    instances: list      # (file name, Instance) as loaded from disk
    roundtrip_ok: bool


def _generate(spec, set_seed):
    if spec.family == "small":
        return generator.small_instances(spec.count, seed=set_seed)
    return generator.make_benchmark(spec.family, spec.count, seed=set_seed)


def setup(spec, set_seed, workdir):
    """Generate the set, save it, load every file back.  Returns (seconds, Loaded)."""
    started = perf_counter()
    set_dir = workdir / "set"
    out_dir = workdir / "out"
    for d in (set_dir, out_dir):
        shutil.rmtree(d, ignore_errors=True)
        d.mkdir(parents=True)
    made = _generate(spec, set_seed)
    prefix = spec.family.split("_")[0]
    for i, instance in enumerate(made):
        io.save_instance(instance, set_dir / f"{prefix}_{i + 1:03d}.json")
    loaded = [(p.name, io.load_instance(p)) for p in sorted(set_dir.glob("*.json"))]
    seconds = perf_counter() - started
    roundtrip_ok = [inst for _, inst in loaded] == list(made)
    return seconds, Loaded(spec, set_dir, out_dir, loaded, roundtrip_ok)


def _check(solve, solution, instance, out_dir):
    """Validate, write the solution file, and digest its bytes."""
    result = feasibility.validate_solution(solution, instance)
    path = out_dir / f"{solve.label}.{solve.algorithm}.{solve.objective}.solution.json"
    io.save_solution(solution, path)
    solve.profit = solution.profit
    solve.served = len(solution.served)
    solve.ok = result.ok
    solve.digest = hashlib.sha256(path.read_bytes()).hexdigest()
    if not result.ok:
        solve.error = result.describe()
    return solve


def _rh_pass(state, seed):
    spec = state.spec
    started = perf_counter()
    solves = []
    for label, instance in state.instances:
        for objective in spec.objectives:
            try:
                solution, seconds = reporting.run_algorithm(
                    "rh", instance, objective, seed=seed, iterations=spec.iterations
                )
            except Exception as exc:  # a failing solve is counted, not fatal
                solves.append(Solve(label, "rh", objective, 0.0, error=repr(exc)))
                continue
            solves.append(_check(Solve(label, "rh", objective, seconds), solution,
                                 instance, state.out_dir))
    return Pass(perf_counter() - started, solves)


def _compare_pass(state, seed):
    """``evrelo compare`` in-process, with the solutions captured for checking.

    The capture replaces ``reporting.run_algorithm`` for the pass (one list
    append per solve) because the command keeps solutions to itself.
    """
    spec = state.spec
    captured = []
    inner = reporting.run_algorithm

    def capture(name, instance, *args, **kwargs):
        solution, seconds = inner(name, instance, *args, **kwargs)
        captured.append((name, instance, solution, seconds))
        return solution, seconds

    argv = [
        "compare", str(state.set_dir),
        "--algorithms", ",".join(COMPARE_ALGORITHMS),
        "--objective", spec.objectives[0],
        "--iterations", str(spec.iterations),
        "--seed", str(seed),
        "--max-requests", str(spec.max_requests),
        "--out", str(state.out_dir / "comparison.csv"),
    ]
    out, err = stdio.StringIO(), stdio.StringIO()
    errors = []
    started = perf_counter()
    reporting.run_algorithm = capture
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(argv)
        if code != 0:
            errors.append(f"evrelo compare exited {code}: {err.getvalue().strip()}")
    except Exception as exc:  # a crashing command is counted, not fatal
        errors.append(f"evrelo compare raised {exc!r}")
    finally:
        reporting.run_algorithm = inner

    solves = []
    reference = {}
    gaps = []
    for k, (name, instance, solution, seconds) in enumerate(captured):
        solves.append(_check(Solve(f"{k:03d}", name, spec.objectives[0], seconds), solution,
                             instance, state.out_dir))
        if name == "exact":
            reference[id(instance)] = solution
        elif name == "rh":
            gap = exact.optimality_gap(solution, reference[id(instance)], spec.objectives[0])
            if gap is not None:
                gaps.append(gap)
    wall = perf_counter() - started
    skipped = sum(1 for line in err.getvalue().splitlines()
                  if line.startswith("warning: skipping"))
    return Pass(wall, solves, skipped=skipped, errors=errors, rh_gaps=gaps)


def run_pass(state, seed):
    if state.spec.name == "compare_amat":
        return _compare_pass(state, seed)
    return _rh_pass(state, seed)
