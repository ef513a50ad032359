"""Every source file parses as Python 3.10, the oldest version pyproject.toml allows."""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SOURCES = sorted(
    path
    for folder in ("src", "tests", "scripts", "perfbench")
    for path in (ROOT / folder).rglob("*.py")
    if "__pycache__" not in path.parts
)


def test_sources_found():
    assert any(p.name == "cli.py" for p in SOURCES)
    assert any(p.name == "run.py" for p in SOURCES)


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: str(p.relative_to(ROOT)))
def test_parses_as_python_3_10(path):
    ast.parse(path.read_text(encoding="utf-8"), filename=str(path), feature_version=(3, 10))
