"""Compare two subjmap output trees file by file.

    python3 tools/compare_outputs.py A B

Every file must exist in both trees.  Each is compared byte for byte, except
for three JSON files, which are compared parsed with the fields that vary
between runs of the same config removed:

* ``history.json``: ``wall_clock_seconds``;
* ``results.json``: ``started_unix`` and ``finished_unix``;
* ``resolved_config.json``: ``out_dir``.

Prints one line per difference.  Exits 0 when the trees match, 1 when they
differ and 2 on a usage error.
"""

from __future__ import annotations

import json
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
    skip = VOLATILE.get(a.name)
    if skip is None:
        return a.read_bytes() == b.read_bytes()
    left, right = (json.loads(p.read_text(encoding="utf-8")) for p in (a, b))
    return ({k: v for k, v in left.items() if k not in skip}
            == {k: v for k, v in right.items() if k not in skip})


def differences(a: Path, b: Path) -> list[str]:
    """One line per file that is missing from a tree or differs between them."""
    in_a, in_b = _files(a), _files(b)
    lines = [f"only in {a}: {p}" for p in sorted(in_a - in_b)]
    lines += [f"only in {b}: {p}" for p in sorted(in_b - in_a)]
    lines += [f"differs: {p}" for p in sorted(in_a & in_b) if not _same(a / p, b / p)]
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
