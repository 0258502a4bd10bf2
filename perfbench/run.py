"""evrelo benchmark: one workload per call, closed loop, one solve at a time.

    python3 perfbench/run.py --workload rh_vamat --seed 0 --seconds 20 --trace 0

Run from the root of a checkout that holds ``src/evrelo``.  ``--trace 0``
prints the end-to-end metrics, ``--trace 1`` the per-layer metrics of one
traced set-up plus one traced pass.  The last line of standard output is a
JSON object with the keys ``correct``, ``attempted``, ``failed`` and
``metrics``; the lines before it are a readable report.  See README.md.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import sys
from importlib import metadata
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
WORKLOADS = ("rh_small_fleet", "rh_vamat", "compare_amat")
SETUP_REPEATS = 5

# (name, unit, better); BENCHMARK.json lists the same metrics.
END_TO_END = (
    ("setup_s", "s", "lower"),
    ("wall_s", "s", "lower"),
    ("solve_ms_p50", "ms", "lower"),
    ("solve_ms_tail", "ms", "lower"),
    ("peak_rss_mb", "MB", "lower"),
    ("profit_total", "EUR", "higher"),
    ("served_total", "requests", "higher"),
)

PER_LAYER = (
    ("model.distance.calls", "count", "lower"),
    ("model.request.calls", "count", "lower"),
    ("model.assemble_solution.calls", "count", "lower"),
    ("model.assemble_solution.self_s", "s", "lower"),
    ("feasibility.replay_route.calls", "count", "lower"),
    ("feasibility.replay_route.self_s", "s", "lower"),
    ("feasibility.validate_route.calls", "count", "lower"),
    ("feasibility.validate_route.self_s", "s", "lower"),
    ("feasibility.validate_route.ok_share", "fraction", "higher"),
    ("feasibility.validate_solution.self_s", "s", "lower"),
    ("insertion.best_insertion.calls", "count", "lower"),
    ("insertion.best_insertion.self_s", "s", "lower"),
    ("insertion.best_insertion.gaps", "gaps/call", "lower"),
    ("insertion.simulate_insertion.calls", "count", "lower"),
    ("insertion.apply_insertion.calls", "count", "lower"),
    ("insertion.apply_insertion.self_s", "s", "lower"),
    ("insertion.materialize_first_pair.calls", "count", "lower"),
    ("insertion.materialize_first_pair.self_s", "s", "lower"),
    ("insertion.critical_factor.calls", "count", "lower"),
    ("insertion.critical_factor.self_s", "s", "lower"),
    ("insertion.preprocess.self_s", "s", "lower"),
    ("insertion.compatible_partners.self_s", "s", "lower"),
    ("insertion.run_rh.iteration_ms", "ms", "lower"),
    ("insertion.construct.self_s", "s", "lower"),
    ("insertion.construct.repeat_share", "fraction", "higher"),
    ("insertion.construct.iterations", "count", "lower"),
    ("model.assemble_solution.repeat_share", "fraction", "higher"),
    ("exact.enumerate.self_s", "s", "lower"),
    ("exact.pack.self_s", "s", "lower"),
    ("exact.nodes", "count", "lower"),
    ("exact.masks", "count", "lower"),
    ("exact.validate_route.calls", "count", "lower"),
    ("exact.wall_share", "fraction", "lower"),
    ("greedy.run_greedy.self_s", "s", "lower"),
    ("greedy.select_next.calls", "count", "lower"),
    ("io.load_instance.calls", "count", "lower"),
    ("io.load_instance.self_s", "s", "lower"),
    ("io.save_instance.self_s", "s", "lower"),
    ("io.save_solution.self_s", "s", "lower"),
    ("generator.make_benchmark.self_s", "s", "lower"),
    ("generator.small_instances.self_s", "s", "lower"),
    ("reporting.run_algorithm.calls", "count", "lower"),
    ("reporting.write_comparison_csv.self_s", "s", "lower"),
    ("cli.compare.self_s", "s", "lower"),
    ("trace.spans", "count", "lower"),
    ("trace.overhead_pct", "%", "lower"),
)


def _parse(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=WORKLOADS, required=True)
    ap.add_argument("--seed", type=int, required=True,
                    help="run seed: the RH draws of every solve")
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--set-seed", type=int, default=0,
                    help="generator seed of the instance set (held-out checks)")
    ap.add_argument("--tiny", action="store_true", help="smoke-test sizes")
    return ap.parse_args(argv)


def _import_evrelo():
    """Import the package from ``src/`` of this checkout.

    Returns the median time of importing evrelo's modules, over
    ``SETUP_REPEATS`` fresh imports.  numpy and click are imported first and
    not timed: one cold import of them varies with the file cache far more
    than evrelo's own import costs.
    """
    src = ROOT / "src"
    if not (src / "evrelo" / "__init__.py").is_file():
        raise SystemExit(f"perfbench: no evrelo package under {src}")
    sys.path.insert(0, str(src))
    import click  # noqa: F401
    import numpy  # noqa: F401
    times = []
    for _ in range(SETUP_REPEATS):
        for name in [m for m in sys.modules if m == "evrelo" or m.startswith("evrelo.")]:
            del sys.modules[name]
        started = perf_counter()
        import evrelo
        import evrelo.cli  # noqa: F401  (not imported by the package itself)
        import evrelo.reporting  # noqa: F401
        times.append(perf_counter() - started)
    if Path(evrelo.__file__).resolve().parent != (src / "evrelo").resolve():
        raise SystemExit(f"perfbench: imported evrelo from {evrelo.__file__}, not {src}")
    return statistics.median(times)


def _git_commit():
    """Commit of the checkout, read from .git without running git."""
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[5:]
        loose = ROOT / ".git" / name
        if loose.is_file():
            return loose.read_text().strip()
        for line in (ROOT / ".git" / "packed-refs").read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def _cpu_model():
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _environment(args, spec):
    import numpy
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "click": metadata.version("click"),
        "nproc": os.cpu_count(),
        "cpu": _cpu_model(),
        "commit": _git_commit(),
        "workload": spec.name,
        "seed": args.seed,
        "set_seed": args.set_seed,
        "instances": spec.count,
        "rh_iterations": spec.iterations,
        "objectives": list(spec.objectives),
        "max_requests": spec.max_requests,
        "tiny": args.tiny,
    }


def _passes(workloads, spec, args, workdir, seconds, min_passes):
    """Repeat passes for ``seconds`` (at least ``min_passes``), with a fresh
    set-up about every ``seconds / SETUP_REPEATS``.  Spreading the set-ups
    over the run keeps their median from hinging on the machine's speed in
    one moment.  Returns (passes, set-up seconds, every round trip exact)."""
    passes, setup_times, roundtrip_ok = [], [], True
    started = perf_counter()
    next_setup = started
    while len(passes) < min_passes or perf_counter() - started < seconds:
        if perf_counter() >= next_setup:
            state = None  # free the previous set before making the next
            took, state = workloads.setup(spec, args.set_seed, workdir)
            setup_times.append(took)
            roundtrip_ok = roundtrip_ok and state.roundtrip_ok
            next_setup = perf_counter() + seconds / SETUP_REPEATS
        passes.append(workloads.run_pass(state, args.seed))
        # Collect the cycles a pass leaves (the exact solver's closures hold
        # its route tables) so peak memory does not depend on the pass count.
        gc.collect()
    return passes, setup_times, roundtrip_ok


def _end_to_end(import_s, setup_times, passes):
    # A solve's time is the fastest of its repeats over the passes (timeit's
    # rule): on a shared machine the slower repeats measure other tenants.
    # wall_s is one pass rebuilt from those times plus the least time a pass
    # spent outside the solvers (validation, files, the CLI's own work).  The
    # tail is the 11th-slowest solve: the highest percentile with ten solves
    # beyond it.
    columns = list(zip(*(p.solves for p in passes)))
    per_solve = [min(s.seconds for s in column) for column in columns]
    outside = min(p.wall_s - sum(s.seconds for s in p.solves) for p in passes)
    ranked = sorted(per_solve)
    n = len(ranked)
    tail_rank = max(0, n - 11)
    first = passes[0]
    metrics = {
        "setup_s": import_s + statistics.median(setup_times),
        "wall_s": sum(per_solve) + outside,
        "solve_ms_p50": 1000.0 * statistics.median(ranked),
        "solve_ms_tail": 1000.0 * ranked[tail_rank],
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "profit_total": sum(s.profit for s in first.solves if s.objective == "profit"),
        "served_total": sum(s.served for s in first.solves),
    }
    notes = {
        "setup_s": f"import {import_s:.4f} s + median of {len(setup_times)} set-ups",
        "wall_s": f"{len(passes)} passes; raw median pass "
                  f"{statistics.median(p.wall_s for p in passes):.4f} s",
        "solve_ms_p50": f"of {n} solves x {len(passes)} passes",
        "solve_ms_tail": f"p{100.0 * (tail_rank + 1) / n:.4g} of {n} solves x {len(passes)} passes",
    }
    return metrics, notes


def _per_layer(tracer, traced_wall, untraced_wall):
    spans = tracer.span_totals()

    def calls(name):
        return spans.get(name, (0, 0.0, 0.0))[0]

    def total(name):
        return spans.get(name, (0, 0.0, 0.0))[1]

    def self_s(name):
        return spans.get(name, (0, 0.0, 0.0))[2]

    def share(part, whole):
        return part / whole if whole else 0.0

    count = tracer.count
    iterations = count("insertion.construct.iterations")
    assembled = count("model.assemble_solution.iterations")
    m = {
        "model.distance.calls": count("model.distance.calls"),
        "model.request.calls": count("model.request.calls"),
        "model.assemble_solution.calls": calls("model.assemble_solution"),
        "model.assemble_solution.self_s": self_s("model.assemble_solution"),
        "feasibility.replay_route.calls": calls("feasibility.replay_route"),
        "feasibility.replay_route.self_s": self_s("feasibility.replay_route"),
        "feasibility.validate_route.calls": calls("feasibility.validate_route"),
        "feasibility.validate_route.self_s": self_s("feasibility.validate_route"),
        "feasibility.validate_route.ok_share": share(
            count("feasibility.validate_route.ok"), calls("feasibility.validate_route")),
        "feasibility.validate_solution.self_s": self_s("feasibility.validate_solution"),
        "insertion.best_insertion.calls": calls("insertion.best_insertion"),
        "insertion.best_insertion.self_s": self_s("insertion.best_insertion"),
        "insertion.best_insertion.gaps": share(
            count("insertion.best_insertion.gaps"), calls("insertion.best_insertion")),
        "insertion.simulate_insertion.calls": count("insertion.simulate_insertion.calls"),
        "insertion.apply_insertion.calls": calls("insertion.apply_insertion"),
        "insertion.apply_insertion.self_s": self_s("insertion.apply_insertion"),
        "insertion.materialize_first_pair.calls": calls("insertion.materialize_first_pair"),
        "insertion.materialize_first_pair.self_s": self_s("insertion.materialize_first_pair"),
        "insertion.critical_factor.calls": calls("insertion.critical_factor"),
        "insertion.critical_factor.self_s": self_s("insertion.critical_factor"),
        "insertion.preprocess.self_s": self_s("insertion.preprocess"),
        "insertion.compatible_partners.self_s": self_s("insertion.compatible_partners"),
        "insertion.run_rh.iteration_ms": 1000.0 * share(
            total("insertion.run_rh"), count("insertion.run_rh.iterations")),
        "insertion.construct.repeat_share": share(
            count("insertion.construct.repeats"), iterations),
        "insertion.construct.iterations": iterations,
        "insertion.construct.self_s": self_s("insertion.construct"),
        "model.assemble_solution.repeat_share": share(
            count("model.assemble_solution.repeats"), assembled),
        "exact.enumerate.self_s": self_s("exact.enumerate"),
        "exact.pack.self_s": self_s("exact.solve_exact"),
        "exact.nodes": count("exact.nodes"),
        "exact.masks": count("exact.masks"),
        "exact.validate_route.calls": count("exact.validate_route.calls"),
        "exact.wall_share": share(total("exact.solve_exact"), traced_wall),
        "greedy.run_greedy.self_s": self_s("greedy.run_greedy"),
        "greedy.select_next.calls": count("greedy.select_next.calls"),
        "io.load_instance.calls": calls("io.load_instance"),
        "io.load_instance.self_s": self_s("io.load_instance"),
        "io.save_instance.self_s": self_s("io.save_instance"),
        "io.save_solution.self_s": self_s("io.save_solution"),
        "generator.make_benchmark.self_s": self_s("generator.make_benchmark"),
        "generator.small_instances.self_s": self_s("generator.small_instances"),
        "reporting.run_algorithm.calls": calls("reporting.run_algorithm"),
        "reporting.write_comparison_csv.self_s": self_s("reporting.write_comparison_csv"),
        "cli.compare.self_s": self_s("cli.compare"),
        "trace.spans": len(tracer.span_start),
        "trace.overhead_pct": 100.0 * (traced_wall / untraced_wall - 1.0),
    }
    notes = {
        "insertion.construct.repeat_share": f"of {iterations} RH iterations",
        "model.assemble_solution.repeat_share": f"of {assembled} RH iterations",
        "feasibility.validate_route.ok_share":
            f"of {calls('feasibility.validate_route')} calls",
        "insertion.best_insertion.gaps": f"over {calls('insertion.best_insertion')} calls",
        "insertion.run_rh.iteration_ms":
            f"over {count('insertion.run_rh.iterations')} iterations",
        "trace.overhead_pct": f"traced pass {traced_wall:.3f} s vs untraced {untraced_wall:.3f} s",
    }
    return m, notes


def _digest(passes):
    """(consistent, digest): every pass must produce byte-identical solutions."""
    first = [s.digest for s in passes[0].solves]
    consistent = all([s.digest for s in p.solves] == first for p in passes[1:])
    return consistent, hashlib.sha256("\n".join(first).encode()).hexdigest()


def run(argv=None):
    args = _parse(argv)
    import_s = _import_evrelo()
    sys.path.insert(0, str(Path(__file__).resolve().parent))
    import tracing
    import workloads

    spec = (workloads.TINY if args.tiny else workloads.SPECS)[args.workload]
    workdir = ROOT / ".perfbench_work" / f"{spec.name}-{os.getpid()}"
    try:
        restored = True
        if not args.trace:
            passes, setup_times, roundtrip_ok = _passes(
                workloads, spec, args, workdir, args.seconds, spec.min_passes)
            traced = []
        else:
            # Untraced passes first, for the overhead baseline, then one traced
            # set-up and one traced pass.
            passes, setup_times, roundtrip_ok = _passes(
                workloads, spec, args, workdir, args.seconds / 2, 1)
            before = tracing.snapshot()
            tracer = tracing.Tracer()
            tracer.install()
            try:
                _, traced_state = workloads.setup(spec, args.set_seed, workdir / "traced")
                traced = [workloads.run_pass(traced_state, args.seed)]
                roundtrip_ok = roundtrip_ok and traced_state.roundtrip_ok
            finally:
                tracer.uninstall()
            restored = tracing.snapshot() == before
            (ROOT / ".perfbench_work").mkdir(exist_ok=True)
            tracer.write(ROOT / ".perfbench_work" / f"spans-{spec.name}.npz")
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    everything = passes + traced
    solves = [s for p in everything for s in p.solves]
    errors = [e for p in everything for e in p.errors]
    failed = sum(1 for s in solves if not s.ok) + len(errors)
    attempted = len(solves) + len(errors)
    consistent, digest = _digest(everything)
    correct = failed == 0 and consistent and restored and roundtrip_ok

    if args.trace:
        untraced_wall = statistics.median(p.wall_s for p in passes)
        metrics, notes = _per_layer(tracer, traced[0].wall_s, untraced_wall)
        units = {name: unit for name, unit, _ in PER_LAYER}
        missing = sorted(tracer.missing)
    else:
        metrics, notes = _end_to_end(import_s, setup_times, passes)
        units = {name: unit for name, unit, _ in END_TO_END}
        missing = []

    print(f"workload {spec.name}  seed {args.seed}  set_seed {args.set_seed}  "
          f"trace {args.trace}  passes {len(passes)}+{len(traced)}")
    print("env " + json.dumps(_environment(args, spec), sort_keys=True))
    for name, value in metrics.items():
        note = notes.get(name)
        print(f"  {name:42s} {value:>16.6g} {units[name]:9s}" + (f"  ({note})" if note else ""))
    gaps = passes[0].rh_gaps
    exact_share = statistics.median(
        sum(s.seconds for s in p.solves if s.algorithm == "exact") / p.wall_s for p in passes)
    check = {
        "failed_share": failed / attempted,
        "exact_share_of_wall": exact_share,
        "skipped": passes[0].skipped,
        "rh_gap_pct": statistics.mean(gaps) if gaps else None,
        "rh_gap_instances": len(gaps),
        "solutions_sha256": digest,
        "byte_identical": consistent,
        "restored": restored,
        "missing": missing,
    }
    print("check " + json.dumps(check, sort_keys=True))
    for s in solves:
        if not s.ok:
            print(f"  FAILED {s.label} {s.algorithm} {s.objective}: {s.error}")
    for e in errors:
        print(f"  FAILED {e}")
    result = {
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(run())
