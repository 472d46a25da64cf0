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
# a workload's set-up line, or one of its commands' lines
_LINE = r"(\w+) (?:setup:|\w+: exit 0, check ok,) peak RSS (\d+\.\d) MiB"


def test_two_rounds_of_group_study_are_identical(tmp_path):
    for side in ("a", "b"):
        done = subprocess.run([sys.executable, str(RUNNER), str(ROOT), str(tmp_path / side),
                               "group_study"], capture_output=True, text=True, timeout=600)
        assert done.returncode == 0, done.stdout + done.stderr
        lines = done.stdout.splitlines()
        assert len(lines) == 7
        assert lines[0].startswith("group_study setup: ")
        peaks = []
        for line in lines:
            match = re.fullmatch(_LINE, line)
            assert match and match[1] == "group_study", line
            peaks.append(float(match[2]))
        assert 0 < peaks[0] and peaks == sorted(peaks)  # the process's running maximum
    assert (tmp_path / "a" / "group_study" / "out" / "finetune" / "model.ckpt").is_file()
    assert differences(tmp_path / "a", tmp_path / "b") == []


def test_each_workload_reports_its_own_peak(tmp_path):
    # the workloads used to share one process, so every group_study line read
    # wide_autoencoder's peak (about 295 MiB against group_study's own 57 MiB)
    done = subprocess.run([sys.executable, str(RUNNER), str(ROOT), str(tmp_path),
                           "wide_autoencoder", "group_study"], capture_output=True, text=True,
                          timeout=600)
    assert done.returncode == 0, done.stdout + done.stderr
    peaks = {}
    for line in done.stdout.splitlines():
        match = re.fullmatch(_LINE, line)
        assert match, line
        peaks.setdefault(match[1], []).append(float(match[2]))
    assert [len(peaks[name]) for name in ("wide_autoencoder", "group_study")] == [3, 7]
    assert max(peaks["group_study"]) < min(peaks["wide_autoencoder"])


def test_usage_errors(tmp_path):
    for args in ([], [str(tmp_path), str(tmp_path / "out")],
                 [str(ROOT), str(tmp_path / "out"), "no_such_workload"]):
        done = subprocess.run([sys.executable, str(RUNNER), *args], capture_output=True,
                              text=True, timeout=60)
        assert done.returncode == 2
        assert "usage" in done.stderr or "unknown workloads" in done.stderr
