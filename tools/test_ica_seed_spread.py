"""Self-test of the ICA seed-spread tool.

    python3 -m pytest -q tools/
"""

import re
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
TOOL = ROOT / "tools" / "ica_seed_spread.py"
LINE = re.compile(r"seed (\d+): n_rejected \d+, max \|corr\| (\d\.\d{3}), "
                  r"converged (True|False), iterations \d+$")


def test_one_line_per_seed_and_a_summary():
    done = subprocess.run([sys.executable, str(TOOL), str(ROOT)], capture_output=True,
                          text=True, timeout=600)
    assert done.returncode == 0, done.stdout + done.stderr
    lines = done.stdout.splitlines()
    assert len(lines) == 13
    matches = [LINE.match(line) for line in lines[:12]]
    assert all(matches), lines
    assert [int(m.group(1)) for m in matches] == list(range(12))
    below = sum(float(m.group(2)) <= 0.5 for m in matches)
    assert lines[12] == f"max |corr| <= 0.5 on {below} of 12 seeds"


def test_usage_errors(tmp_path):
    for args in ([], [str(tmp_path)], [str(ROOT), "extra"]):
        done = subprocess.run([sys.executable, str(TOOL), *args], capture_output=True,
                              text=True, timeout=60)
        assert done.returncode == 2
        assert "usage" in done.stderr
