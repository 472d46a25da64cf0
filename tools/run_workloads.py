"""Run one round of benchmark workloads from a source tree into an output tree.

    python3 tools/run_workloads.py TREE OUT [WORKLOAD ...]

Imports ``subjmap`` from ``TREE/src`` and the workloads from
``TREE/bench/workloads.py``, then for each named workload (default: all of
them) writes its seed-0 inputs into ``OUT/<workload>`` and runs each command
of its round once through ``subjmap.cli.main``.  Prints one line per command
with its exit code, the result of the workload's check on its output and the
process's peak RSS once the command has returned (``ru_maxrss``: the commands
share one process, so it is the largest of this and every earlier command).
Exits 0 when every command exits 0 and passes its check, 1 otherwise and 2 on
a usage error.

Two trees' outputs are byte-identical when ``tools/compare_outputs.py``
finds no difference between their ``OUT`` directories, e.g.::

    python3 tools/run_workloads.py parent_checkout /tmp/a
    python3 tools/run_workloads.py . /tmp/b
    python3 tools/compare_outputs.py /tmp/a /tmp/b
"""

from __future__ import annotations

import contextlib
import io
import resource
import sys
from pathlib import Path

SEED = 0


def peak_rss_mib() -> float:
    """This process's peak resident set size so far, in MiB."""
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    return peak / 2 ** 20 if sys.platform == "darwin" else peak / 2 ** 10  # bytes, else KiB


def main(argv=None) -> int:
    args = sys.argv[1:] if argv is None else argv
    if len(args) < 2 or not (Path(args[0]) / "bench" / "workloads.py").is_file():
        print("usage: python3 tools/run_workloads.py TREE OUT [WORKLOAD ...] "
              "(TREE is a checkout with src/ and bench/)", file=sys.stderr)
        return 2
    tree, out = Path(args[0]).resolve(), Path(args[1]).resolve()
    sys.path[:0] = [str(tree / "src"), str(tree / "bench")]
    from subjmap.cli import main as cli_main
    from workloads import SETUPS

    names = args[2:] or list(SETUPS)
    unknown = [name for name in names if name not in SETUPS]
    if unknown:
        print(f"unknown workloads {unknown}; choose from {sorted(SETUPS)}", file=sys.stderr)
        return 2
    failed = 0
    for name in names:
        work = out / name
        work.mkdir(parents=True, exist_ok=True)
        for op in SETUPS[name](SEED, work):
            with contextlib.redirect_stdout(io.StringIO()):
                code = cli_main(op.argv(work))
            problems = op.check(work / "out" / op.name)[0] if code == 0 else ["not checked"]
            failed += bool(code or problems)
            print(f"{name} {op.name}: exit {code}, check "
                  f"{'; '.join(problems) if problems else 'ok'}, "
                  f"peak RSS {peak_rss_mib():.1f} MiB", flush=True)
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
