"""Every error class in ``subjmap.errors`` is raised by the package, named by a test, and listed
with its CLI exit code in the README's "Errors" table."""

import inspect
import json
import re
from pathlib import Path

import pytest

from subjmap import cli, errors

ROOT = Path(__file__).resolve().parents[1]
CLASSES = sorted(name for name, obj in vars(errors).items()
                 if inspect.isclass(obj) and obj.__module__ == errors.__name__)


def _sources(directory: Path, skip: Path | None = None) -> str:
    return "\n".join(path.read_text(encoding="utf-8")
                     for path in sorted(directory.rglob("*.py")) if path != skip)


SRC = _sources(ROOT / "src")
TESTS = _sources(ROOT / "tests", skip=Path(__file__).resolve())
README_ERRORS = (ROOT / "README.md").read_text(encoding="utf-8").split("\n## Errors\n", 1)[-1]
# class name -> the exit code its README row gives
EXIT_CODES = {name: int(code) for name, code in re.findall(
    r"^\| `(\w+)` \| .+ \| (\d) \|$", README_ERRORS.split("\n## ", 1)[0], re.M)}


def test_every_class_is_a_subjmap_error():
    assert "SubjmapError" in CLASSES
    assert all(issubclass(getattr(errors, name), errors.SubjmapError) for name in CLASSES)


@pytest.mark.parametrize("name", CLASSES)
def test_raised_in_src(name):
    assert re.search(rf"\braise {name}\b", SRC), f"{name} is raised nowhere in src/"


@pytest.mark.parametrize("name", CLASSES)
def test_named_by_a_test(name):
    assert re.search(rf"\b{name}\b", TESTS), f"{name} is named by no file under tests/"


def test_src_raises_no_builtin_error():
    # callers catch SubjmapError; a builtin raised by the package escapes them
    builtin = re.compile(r"\braise (ValueError|TypeError|KeyError|IndexError|RuntimeError)\b")
    found = [line.strip() for line in SRC.splitlines() if builtin.search(line)]
    assert not found, f"src/ raises builtins: {found}"


def test_readme_errors_table_lists_every_class():
    assert sorted(EXIT_CODES) == CLASSES, "README's Errors table and errors.py list other classes"


@pytest.mark.parametrize("name", CLASSES)
def test_readme_exit_code_is_the_cli_exit_code(name, tmp_path, monkeypatch, capsys):
    def fail(*args):
        raise getattr(errors, name)("boom")

    monkeypatch.setitem(cli._COMMANDS, "paramcount", fail)
    config = tmp_path / "c.json"
    config.write_text(json.dumps({"paramcount": {"input_size": 1, "hidden_size": 1,
                                                 "n_subjects": 1}}))
    code = cli.main(["paramcount", "--config", str(config), "--out", str(tmp_path / "out")])
    assert code == EXIT_CODES.get(name) == (1 if name == "ConfigError" else 2)
    assert capsys.readouterr().err.startswith(
        "config error: boom" if name == "ConfigError" else f"runtime error: {name}: ")
