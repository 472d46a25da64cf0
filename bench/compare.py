"""Diff two result sets written by ``run.py --save``.

    python3 bench/compare.py BASE.jsonl NEW.jsonl

For each workload and metric found in both sets (trace 0 and trace 1 records
are compared separately) it prints the median and quartiles of each side, the
share of pairs NEW won, and a verdict from ``benchstats.verdict``.  Runs are
paired by seed; seeds present on one side only are left out of the pairs.
End-to-end metrics use their BENCHMARK.json bound: a metric whose run-to-run
spread exceeds the bound on either side is "unresolved".
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from benchstats import quartiles, verdict, won_share

ROOT = Path(__file__).resolve().parent.parent


def load(path: Path) -> dict:
    """{(workload, trace): {seed: record}}; a later record of the same seed wins."""
    runs: dict = {}
    for line in path.read_text(encoding="utf-8").splitlines():
        if line.strip():
            rec = json.loads(line)
            runs.setdefault((rec["workload"], rec["trace"]), {})[rec["seed"]] = rec
    return runs


def compare(base: dict, new: dict, spec: dict) -> list[str]:
    info = {m["name"]: m for m in spec["end_to_end"] + spec["per_layer"]}
    lines = []
    for key in sorted(set(base) & set(new)):
        workload, trace = key
        seeds = sorted(set(base[key]) & set(new[key]))
        lines.append(f"== {workload} (trace {trace}): {len(base[key])} base runs, "
                     f"{len(new[key])} new runs, {len(seeds)} pairs by seed")
        lines.append(f"   {'metric':<40s} {'base q1 / median / q3':>34s}  "
                     f"{'new q1 / median / q3':>34s}  {'won':>5s}  verdict")
        metrics = next(iter(base[key].values()))["metrics"]
        for name in metrics:
            a = [r["metrics"][name]["value"] for r in base[key].values()]
            b = [r["metrics"][name]["value"] for r in new[key].values()]
            m = info[name]
            won = won_share([base[key][s]["metrics"][name]["value"] for s in seeds],
                            [new[key][s]["metrics"][name]["value"] for s in seeds],
                            m["better"])
            qa, qb = quartiles(a), quartiles(b)
            lines.append(
                f"   {name:<40s} {qa[0]:10.4g} / {qa[1]:10.4g} / {qa[2]:10.4g}  "
                f"{qb[0]:10.4g} / {qb[1]:10.4g} / {qb[2]:10.4g}  {won:5.2f}  "
                f"{verdict(a, b, m['better'], m.get('bound'))}")
        failed = [sum(r["failed"] for r in side[key].values()) for side in (base, new)]
        lines.append(f"   failed operations: base {failed[0]}, new {failed[1]}")
    return lines


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("base", type=Path)
    parser.add_argument("new", type=Path)
    args = parser.parse_args(argv)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    lines = compare(load(args.base), load(args.new), spec)
    if not lines:
        print("no workload appears in both result sets", file=sys.stderr)
        return 1
    print("\n".join(lines))
    return 0


if __name__ == "__main__":
    sys.exit(main())
