"""Self-test of the output-tree comparison.

    python3 -m pytest -q tools/
"""

import json

import pytest

from compare_outputs import main


def make_tree(root, started=1.0, wall=0.5, out_dir="runs/a", mse=0.25, ckpt=b"\x00\x01"):
    (root / "sub").mkdir(parents=True)
    (root / "results.json").write_text(json.dumps(
        {"command": "train", "started_unix": started, "finished_unix": started + 1,
         "metrics": {"test_mse": mse}}))
    (root / "history.json").write_text(json.dumps({"n_steps": 4, "wall_clock_seconds": wall}))
    (root / "resolved_config.json").write_text(json.dumps({"seed": 1, "out_dir": out_dir}))
    (root / "sub" / "model.ckpt").write_bytes(ckpt)
    return str(root)


def test_fields_that_vary_between_runs_are_ignored(tmp_path, capsys):
    a = make_tree(tmp_path / "a")
    b = make_tree(tmp_path / "b", started=9.0, wall=3.0, out_dir="runs/b")
    assert main([a, b]) == 0
    assert "identical: 4 files" in capsys.readouterr().out


@pytest.mark.parametrize("change,named", [
    ({"mse": 0.5}, "results.json"),
    ({"ckpt": b"\x00\x02"}, "model.ckpt"),
])
def test_any_other_difference_fails(tmp_path, capsys, change, named):
    a = make_tree(tmp_path / "a")
    b = make_tree(tmp_path / "b", **change)
    assert main([a, b]) == 1
    assert named in capsys.readouterr().out


def test_a_file_missing_from_one_tree_fails(tmp_path, capsys):
    a = make_tree(tmp_path / "a")
    b = make_tree(tmp_path / "b")
    (tmp_path / "b" / "history.json").unlink()
    assert main([a, b]) == 1
    assert "only in" in capsys.readouterr().out


def test_other_fields_of_the_volatile_files_still_count(tmp_path):
    a = make_tree(tmp_path / "a")
    b = make_tree(tmp_path / "b")
    (tmp_path / "b" / "history.json").write_text(json.dumps({"n_steps": 5,
                                                             "wall_clock_seconds": 0.5}))
    assert main([a, b]) == 1


def test_usage_error(tmp_path):
    assert main([str(tmp_path)]) == 2
