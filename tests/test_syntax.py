"""Every Python file parses as Python 3.10, the oldest version pyproject.toml
declares (requires-python = ">=3.10").

This catches syntax only, such as `except*` (Python 3.11).  It does not
catch a newer standard-library name, so it would not have caught
`from operator import call` (Python 3.11), which parses on 3.10 and fails
only on import."""

import ast
import pathlib

import pytest

ROOT = pathlib.Path(__file__).resolve().parent.parent
FILES = sorted(p for d in ("src", "tests", "demos") for p in (ROOT / d).rglob("*.py"))


def test_files_were_found():
    assert any(p.name == "cli.py" for p in FILES)
    assert any(p.parent.name == "demos" for p in FILES)


@pytest.mark.parametrize("path", FILES, ids=lambda p: str(p.relative_to(ROOT)))
def test_parses_as_python_3_10(path):
    ast.parse(path.read_text(encoding="utf-8"), filename=str(path),
              feature_version=(3, 10))
