"""Self-test of the workload runner: two runs of one tree give identical outputs.

    python3 -m pytest -q tools/
"""

import re
import subprocess
import sys
from pathlib import Path

from compare_outputs import differences

ROOT = Path(__file__).resolve().parents[1]
RUNNER = ROOT / "tools" / "run_workloads.py"


def test_two_rounds_of_group_study_are_identical(tmp_path):
    for side in ("a", "b"):
        done = subprocess.run([sys.executable, str(RUNNER), str(ROOT), str(tmp_path / side),
                               "group_study"], capture_output=True, text=True, timeout=600)
        assert done.returncode == 0, done.stdout + done.stderr
        lines = done.stdout.splitlines()
        assert len(lines) == 6
        peaks = []
        for line in lines:
            match = re.fullmatch(r"group_study \w+: exit 0, check ok, peak RSS (\d+\.\d) MiB",
                                 line)
            assert match, line
            peaks.append(float(match[1]))
        assert 0 < peaks[0] and peaks == sorted(peaks)  # the process's running maximum
    assert (tmp_path / "a" / "group_study" / "out" / "finetune" / "model.ckpt").is_file()
    assert differences(tmp_path / "a", tmp_path / "b") == []


def test_usage_errors(tmp_path):
    for args in ([], [str(tmp_path), str(tmp_path / "out")],
                 [str(ROOT), str(tmp_path / "out"), "no_such_workload"]):
        done = subprocess.run([sys.executable, str(RUNNER), *args], capture_output=True,
                              text=True, timeout=60)
        assert done.returncode == 2
        assert "usage" in done.stderr or "unknown workloads" in done.stderr
