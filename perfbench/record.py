"""Record a point of the benchmark trajectory.

    python3 perfbench/record.py --out perfbench/results/BENCH_0.json

For every workload: untraced runs at ten run seeds (their quartile spread is
the steadiness check), one traced run at seed 0, and the held-out pair, one
untraced and one traced run on the instance set of generator seed 1.  Runs
go one after another, each in its own process, exactly as ``run.py`` is
invoked by hand.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SEEDS = 10


def _run(workload, seed, seconds, trace, set_seed=0):
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace), "--set-seed", str(set_seed)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600, check=True)
    lines = proc.stdout.splitlines()
    result = json.loads(lines[-1])
    prefixed = {line.split(" ", 1)[0]: json.loads(line.split(" ", 1)[1])
                for line in lines if line.startswith(("env ", "check "))}
    print(f"{workload} seed {seed} set_seed {set_seed} trace {trace}: correct "
          f"{result['correct']}, {result['failed']} of {result['attempted']} failed", flush=True)
    return {
        "seed": seed,
        "set_seed": set_seed,
        "correct": result["correct"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {name: m["value"] for name, m in result["metrics"].items()},
        "check": prefixed["check"],
        "env": prefixed["env"],
    }


def _summary(runs):
    out = {}
    for name in runs[0]["metrics"]:
        values = [r["metrics"][name] for r in runs]
        q1, _, q3 = statistics.quantiles(values, n=4)
        med = statistics.median(values)
        out[name] = {"median": med, "q1": q1, "q3": q3,
                     "spread": (q3 - q1) / med if med else None}
    return out


def held_out_summary(workload):
    """The figures a later claim re-checks on the held-out set, for both sets."""
    out = {}
    for label, traced, untraced in (
        ("set_seed_0", workload["traced"], workload["runs"][0]),
        ("set_seed_1", workload["held_out"]["traced"], workload["held_out"]["untraced"]),
    ):
        out[label] = {
            "insertion.construct.repeat_share": traced["metrics"]["insertion.construct.repeat_share"],
            "insertion.construct.iterations": traced["metrics"]["insertion.construct.iterations"],
            "exact_share_of_wall": untraced["check"]["exact_share_of_wall"],
            "skipped": untraced["check"]["skipped"],
            "wall_s": untraced["metrics"]["wall_s"],
        }
    return out


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--out", type=Path, required=True)
    args = ap.parse_args(argv)

    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = bench["run_seconds"]
    names = [w["name"] for w in bench["workloads"]]
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    doc = {"run_seconds": seconds, "workloads": {}}
    for name in names:
        runs = [_run(name, seed, seconds, 0) for seed in range(SEEDS)]
        summary = _summary(runs)
        doc["workloads"][name] = {
            "runs": runs,
            "summary": summary,
            "spread_within_third_of_bound": {
                m: s["spread"] is not None and s["spread"] < bounds[m] / 3
                for m, s in summary.items()
            },
            "traced": _run(name, 0, seconds, 1),
            "held_out": {
                "untraced": _run(name, 1, seconds, 0, set_seed=1),
                "traced": _run(name, 1, seconds, 1, set_seed=1),
            },
        }
        doc["workloads"][name]["held_out_summary"] = held_out_summary(doc["workloads"][name])
        args.out.parent.mkdir(parents=True, exist_ok=True)
        args.out.write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n")
    units = {m["name"]: m["unit"] for m in bench["end_to_end"]}
    for name, w in doc["workloads"].items():
        for metric, s in w["summary"].items():
            print(f"{name:15s} {metric:14s} {s['median']:<12.6g} {units[metric]:9s}"
                  f" spread {s['spread']:.4f} (bound {bounds[metric]})")
    return 0


if __name__ == "__main__":
    sys.exit(main())
