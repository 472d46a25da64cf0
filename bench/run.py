"""subjmap benchmark: one workload, one run, one JSON line of metrics.

    python3 bench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1> [--save FILE]

Run from the root of a checkout.  The workload runs in its own process
(``child.py``), so peak RSS belongs to it alone; set-up is repeated in
``SETUP_REPEATS`` processes and its median reported.  The environment is
passed through unchanged: the BLAS thread policy measured is the program's.

``--trace 0`` reports the end-to-end metrics of BENCHMARK.json, ``--trace 1``
the per-layer metrics of a traced run.  Round times take each command at its
slowest over the run's repeats (see ``benchstats.command_slowest``); per-layer
figures are medians over the traced rounds.  Human-readable tables and the
protocol record (nproc, versions, BLAS build, thread variables, git sha,
seed, round count) come first; the last line of standard output is the
result object.  ``--save FILE`` appends the whole run record to a JSONL
file that ``compare.py`` reads.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import subprocess
import sys
import time
from pathlib import Path

from benchstats import command_slowest, failed_frac, layer_value, median, quartiles

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
RUNS_DIR = ROOT / ".bench_runs"
SETUP_REPEATS = 5
RUN_LIMIT_S = 170.0  # the whole run, set-ups included, must end within this


def fail(message: str) -> int:
    print(f"bench: {message}", file=sys.stderr)
    return 2


def start_child(args, work: Path, setup_only: bool, deadline: float) -> dict | None:
    """Run child.py to completion; its result dict, or None if it failed."""
    work.mkdir(parents=True)
    cmd = [sys.executable, str(BENCH_DIR / "child.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--work", str(work), "--t0", repr(time.monotonic())]
    if setup_only:
        cmd.append("--setup-only")
    proc = subprocess.Popen(cmd, stdout=sys.stderr, start_new_session=True)
    try:
        code = proc.wait(timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        print(f"bench: workload process ran past the {RUN_LIMIT_S:.0f} s limit",
              file=sys.stderr)
        return None
    result_path = work / "result.json"
    if code != 0 or not result_path.exists():
        print(f"bench: workload process exited with code {code}", file=sys.stderr)
        return None
    return json.loads(result_path.read_text(encoding="utf-8"))


def round_wall(rounds) -> float:
    """Wall time of one round with each command at its slowest over ``rounds``."""
    return sum(c["wall_s"] for c in command_slowest(rounds).values())


def end_to_end(result: dict, setups: list[float]) -> dict:
    untraced = [r for r in result["rounds"] if not r["traced"]]
    trains = {op["name"] for op in untraced[0]["ops"] if op["trains"]}
    training = [c for name, c in command_slowest(untraced).items() if name in trains]
    return {
        "wall_s": round_wall(untraced),
        "setup_s": median(setups),
        "peak_rss_mb": result["peak_rss_mb"],
        "train_steps_per_s": (sum(c["steps"] for c in training)
                              / sum(c["wall_s"] for c in training)),
    }


def per_layer(result: dict, names: list[str], attempted: int, failed: int) -> dict:
    traced = [r for r in result["rounds"] if r["traced"]]
    values = {}
    for name in names:
        if name == "failed_frac":
            values[name] = failed_frac(attempted, failed)
        elif name == "trace.overhead_s":
            values[name] = (round_wall(traced)
                            - round_wall(r for r in result["rounds"] if not r["traced"]))
        else:
            values[name] = median(layer_value(r["layers"], name) for r in traced)
    return values


def outside_sweep(result: dict) -> dict:
    """Per-round medians of the sweep's span, measured around the call in every round."""
    sweeps = [r["layers"]["training.hyperparameter_sweep"] for r in result["rounds"]
              if not r["traced"] and "training.hyperparameter_sweep" in r["layers"]]
    if not sweeps:
        return {}
    return {f"training.hyperparameter_sweep.{key}": median(s[key] for s in sweeps)
            for key in ("s", "cells", "errors", "cpu_s")}


def print_report(args, result: dict, setups: list[float], metrics: dict, units: dict,
                 attempted: int, failed: int, outside: dict) -> None:
    rounds = result["rounds"]
    print(f"== {args.workload}  seed {args.seed}  trace {args.trace}  "
          f"rounds {len(rounds)}  set-ups {len(setups)}")
    for key, value in result["protocol"].items():
        print(f"   {key:<14s} {json.dumps(value)}")
    print(f"   operations     {attempted} attempted, {failed} failed "
          f"(failed_frac {failed_frac(attempted, failed):.4g})")
    for r in rounds:
        for op in r["ops"]:
            if op["problems"]:
                print(f"   FAILED {op['name']}: {'; '.join(op['problems'])}")
    print("   command wall time over untraced rounds (median [min, max] s):")
    for name in [op["name"] for op in rounds[0]["ops"]]:
        walls = [op["wall_s"] for r in rounds if not r["traced"]
                 for op in r["ops"] if op["name"] == name]
        print(f"     {name:<20s} {median(walls):9.4f} [{min(walls):.4f}, {max(walls):.4f}]")
    if outside:
        print("   sweep per untraced round, measured around the call:")
        for key, value in outside.items():
            print(f"     {key:<44s} {value:14.6f}")
    q1, q2, q3 = quartiles(setups)
    print(f"   setup_s over {len(setups)} set-ups: median {q2:.4f} (q1 {q1:.4f}, q3 {q3:.4f})")
    print("   metrics:")
    for name, value in metrics.items():
        print(f"     {name:<44s} {value:14.6f} {units[name]}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="subjmap benchmark (one run)")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--save", type=Path, default=None,
                        help="append the run record to this JSONL file")
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "subjmap" / "__init__.py").is_file():
        return fail(f"no subjmap sources under {ROOT / 'src'}; run from a full checkout")
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    workloads = [w["name"] for w in spec["workloads"]]
    if args.workload not in workloads:
        return fail(f"unknown workload {args.workload!r}; choose from {workloads}")
    group = spec["per_layer"] if args.trace else spec["end_to_end"]
    units = {m["name"]: m["unit"] for m in group}

    deadline = time.monotonic() + RUN_LIMIT_S
    base = RUNS_DIR / f"{args.workload}-{args.seed}-t{args.trace}-{os.getpid()}"
    if base.exists():
        shutil.rmtree(base)
    try:
        setups = []
        for i in range(SETUP_REPEATS - 1):
            extra = start_child(args, base / f"setup{i}", True, deadline)
            if extra is None:
                return 2
            setups.append(extra["setup_s"])
            shutil.rmtree(base / f"setup{i}")
        result = start_child(args, base / "main", False, deadline)
        if result is None:
            return 2
    finally:
        shutil.rmtree(base, ignore_errors=True)
    setups.append(result["setup_s"])

    attempted = sum(r["attempted"] for r in result["rounds"])
    failed = sum(r["failed"] for r in result["rounds"])
    if args.trace:
        values = per_layer(result, list(units), attempted, failed)
    else:
        values = end_to_end(result, setups)
    metrics = {name: values[name] for name in units}
    outside = outside_sweep(result)
    print_report(args, result, setups, metrics, units, attempted, failed, outside)

    line = {"correct": failed == 0, "attempted": attempted, "failed": failed,
            "metrics": {name: {"value": value, "unit": units[name]}
                        for name, value in metrics.items()}}
    if args.save is not None:
        record = dict(line, workload=args.workload, seed=args.seed, trace=args.trace,
                      seconds=args.seconds, setups_s=setups, rounds=len(result["rounds"]),
                      protocol=result["protocol"], outside_sweep=outside,
                      round_walls_s=[r["wall_s"] for r in result["rounds"]],
                      op_walls_s=[{op["name"]: op["wall_s"] for op in r["ops"]}
                                  for r in result["rounds"] if not r["traced"]])
        with open(args.save, "a", encoding="utf-8") as fh:
            fh.write(json.dumps(record) + "\n")
    print(json.dumps(line))
    return 0


if __name__ == "__main__":
    sys.exit(main())
