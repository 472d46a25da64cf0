"""Compare two subjmap output trees file by file.

    python3 tools/compare_outputs.py A B

Every file must exist in both trees.  Each is compared byte for byte, except
for three JSON files, which are compared parsed with the fields that vary
between runs of the same config removed:

* ``history.json``: ``wall_clock_seconds``;
* ``results.json``: ``started_unix`` and ``finished_unix``;
* ``resolved_config.json``: ``out_dir``.

Prints one line per difference.  A differing JSON or CSV file's line also
gives the largest relative difference, ``|a - b| / max(|a|, |b|)``, among
the numbers that sit at the same place in both files (the same key path, or
the same row and column), so a change that moves reported values by roundoff
says by how much.  Exits 0 when the trees match, 1 when they differ and 2 on
a usage error.
"""

from __future__ import annotations

import csv
import json
import math
import sys
from pathlib import Path

VOLATILE = {
    "history.json": {"wall_clock_seconds"},
    "results.json": {"started_unix", "finished_unix"},
    "resolved_config.json": {"out_dir"},
}


def _files(root: Path) -> set[Path]:
    return {p.relative_to(root) for p in root.rglob("*") if p.is_file()}


def _same(a: Path, b: Path) -> bool:
    if a.name not in VOLATILE:
        return a.read_bytes() == b.read_bytes()
    return _parsed(a) == _parsed(b)


def _numbers_json(value, path=()):
    """Each number in a parsed JSON value, by its key path."""
    if isinstance(value, dict):
        for key, item in value.items():
            yield from _numbers_json(item, path + (key,))
    elif isinstance(value, list):
        for i, item in enumerate(value):
            yield from _numbers_json(item, path + (i,))
    elif isinstance(value, (int, float)) and not isinstance(value, bool):
        yield path, float(value)


def _numbers_csv(path: Path):
    """Each cell of a CSV file that parses as a number, by its row and column."""
    with open(path, newline="", encoding="utf-8") as fh:
        for row, cells in enumerate(csv.reader(fh)):
            for column, cell in enumerate(cells):
                try:
                    yield (row, column), float(cell)
                except ValueError:
                    pass


def _relative(a: float, b: float) -> float:
    if a == b or (math.isnan(a) and math.isnan(b)):
        return 0.0
    difference = abs(a - b) / max(abs(a), abs(b))
    return difference if math.isfinite(difference) else math.inf  # a side is not finite


def _parsed(path: Path):
    """A JSON file's value without the fields that vary between runs."""
    value = json.loads(path.read_text(encoding="utf-8"))
    skip = VOLATILE.get(path.name, set())
    return {k: v for k, v in value.items() if k not in skip} if isinstance(value, dict) else value


def max_relative_difference(a: Path, b: Path) -> float | None:
    """The largest relative difference between numbers at the same place in two JSON or
    CSV files; None for another kind of file, one that does not parse, or when they have
    no number in common."""
    try:
        if a.suffix == ".json":
            left, right = (dict(_numbers_json(_parsed(p))) for p in (a, b))
        elif a.suffix == ".csv":
            left, right = dict(_numbers_csv(a)), dict(_numbers_csv(b))
        else:
            return None
    except (ValueError, csv.Error):  # a decode error is a ValueError too
        return None
    shared = left.keys() & right.keys()
    return max((_relative(left[key], right[key]) for key in shared), default=None)


def _describe(a: Path, b: Path, p: Path) -> str:
    worst = max_relative_difference(a / p, b / p)
    return f"differs: {p}" + ("" if worst is None else
                              f" (max relative difference of its numbers: {worst:.3g})")


def differences(a: Path, b: Path) -> list[str]:
    """One line per file that is missing from a tree or differs between them."""
    in_a, in_b = _files(a), _files(b)
    lines = [f"only in {a}: {p}" for p in sorted(in_a - in_b)]
    lines += [f"only in {b}: {p}" for p in sorted(in_b - in_a)]
    lines += [_describe(a, b, p) for p in sorted(in_a & in_b) if not _same(a / p, b / p)]
    return lines


def main(argv=None) -> int:
    args = sys.argv[1:] if argv is None else argv
    if len(args) != 2 or not all(Path(arg).is_dir() for arg in args):
        print("usage: python3 tools/compare_outputs.py A B (two directories)", file=sys.stderr)
        return 2
    lines = differences(Path(args[0]), Path(args[1]))
    for line in lines:
        print(line)
    if not lines:
        print(f"identical: {len(_files(Path(args[0])))} files")
    return 1 if lines else 0


if __name__ == "__main__":
    sys.exit(main())
