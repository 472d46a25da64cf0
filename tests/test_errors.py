"""Every error class in ``subjmap.errors`` is raised by the package and named by a test."""

import inspect
import re
from pathlib import Path

import pytest

from subjmap import errors

ROOT = Path(__file__).resolve().parents[1]
CLASSES = sorted(name for name, obj in vars(errors).items()
                 if inspect.isclass(obj) and obj.__module__ == errors.__name__)


def _sources(directory: Path, skip: Path | None = None) -> str:
    return "\n".join(path.read_text(encoding="utf-8")
                     for path in sorted(directory.rglob("*.py")) if path != skip)


SRC = _sources(ROOT / "src")
TESTS = _sources(ROOT / "tests", skip=Path(__file__).resolve())


def test_every_class_is_a_subjmap_error():
    assert "SubjmapError" in CLASSES
    assert all(issubclass(getattr(errors, name), errors.SubjmapError) for name in CLASSES)


@pytest.mark.parametrize("name", CLASSES)
def test_raised_in_src(name):
    assert re.search(rf"\braise {name}\b", SRC), f"{name} is raised nowhere in src/"


@pytest.mark.parametrize("name", CLASSES)
def test_named_by_a_test(name):
    assert re.search(rf"\b{name}\b", TESTS), f"{name} is named by no file under tests/"
