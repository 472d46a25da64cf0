"""One workload in its own process: set-up, timed rounds of CLI commands, checks.

Started by ``run.py``; not meant to be run by hand.  It makes the workload's
input files from the seed, then repeats rounds of ``subjmap`` commands through
``subjmap.cli.main`` until ``--seconds`` have passed, checks every command's
output, and writes ``result.json`` into ``--work``.  With ``--trace 1`` the
rounds alternate untraced and traced, so the run measures its own tracing
overhead.  ``--setup-only`` stops after set-up: run.py starts it a few times
to take a median set-up time.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import platform
import resource
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
sys.path.insert(0, str(ROOT / "src"))

import numpy as np  # noqa: E402

from subjmap.cli import main as cli_main  # noqa: E402

from benchstats import aggregate  # noqa: E402
from tracer import Tracer  # noqa: E402
from workloads import SETUPS, read_steps  # noqa: E402

THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")


def git_sha(root: Path) -> str | None:
    """HEAD of the checkout read from ``.git`` without starting git; None outside a repo."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text(encoding="utf-8").strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text(encoding="utf-8").strip()
        for line in (git / "packed-refs").read_text(encoding="utf-8").splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def protocol(seed: int) -> dict:
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):  # numpy before 1.26 only prints its build config
        blas = {}
    return {
        "nproc": os.cpu_count(),
        "cpus_allowed": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": {k: blas.get(k) for k in ("name", "version", "openblas configuration")},
        "thread_env": {k: os.environ.get(k) for k in THREAD_VARS},
        "git_sha": git_sha(ROOT),
        "seed": seed,
    }


def run_op(op, work: Path, tracer: Tracer) -> dict:
    """One CLI command, timed, then checked.  Failures are recorded, never raised."""
    started = time.perf_counter()
    with contextlib.redirect_stdout(io.StringIO()):
        code = tracer.call(f"cli.{op.command}", cli_main, op.argv(work))
    wall = time.perf_counter() - started
    out_dir = work / "out" / op.name
    steps = 0
    if code != 0:
        problems, failed_cells = [f"exit code {code}"], op.cells
    else:
        try:
            problems, failed_cells = op.check(out_dir)
            if op.trains:
                steps = read_steps(out_dir)
        except Exception as exc:  # a malformed output is a failed check
            problems, failed_cells = [f"check raised {type(exc).__name__}: {exc}"], op.cells
    return {"name": op.name, "wall_s": wall, "exit_code": code, "problems": problems,
            "trains": op.trains, "steps": steps, "attempted": 1 + op.cells,
            "failed": (1 if problems else 0) + failed_cells}


def run_round(ops, work: Path, tracer: Tracer, traced: bool) -> dict:
    tracer.install(full=traced)
    try:
        results = [run_op(op, work, tracer) for op in ops]
    finally:
        tracer.uninstall()
    layers = aggregate(tracer.take())
    for cell_spans in tracer.collect_spilled():
        aggregate(cell_spans, layers)
    return {
        "traced": traced,
        "wall_s": sum(r["wall_s"] for r in results),
        "attempted": sum(r["attempted"] for r in results),
        "failed": sum(r["failed"] for r in results),
        "ops": results,
        "layers": layers,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True, choices=sorted(SETUPS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--work", type=Path, required=True)
    parser.add_argument("--t0", type=float, required=True,
                        help="time.monotonic() of the parent just before it started this process")
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)

    work = args.work
    ops = SETUPS[args.workload](args.seed, work)
    setup_s = time.monotonic() - args.t0
    result = {"setup_s": setup_s}
    if not args.setup_only:
        spill = work / "spill"
        spill.mkdir()
        tracer = Tracer(spill)
        rounds = []
        started = time.monotonic()
        # a traced run alternates untraced and traced rounds and ends on a pair
        while True:
            traced = bool(args.trace) and len(rounds) % 2 == 1
            rounds.append(run_round(ops, work, tracer, traced))
            if time.monotonic() - started >= args.seconds and (
                    not args.trace or len(rounds) % 2 == 0):
                break
        self_usage = resource.getrusage(resource.RUSAGE_SELF)
        child_usage = resource.getrusage(resource.RUSAGE_CHILDREN)
        result.update({
            "rounds": rounds,
            "peak_rss_mb": max(self_usage.ru_maxrss, child_usage.ru_maxrss) / 1024.0,
            "protocol": protocol(args.seed),
        })
    (work / "result.json").write_text(json.dumps(result), encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
