"""The runtime imports only what ``pyproject.toml`` declares.

Every shard worker, chaos child and CLI call pays for ``import repro``,
so dependencies that are off the hot path must not creep back in.
"""

import ast
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

tomllib = pytest.importorskip("tomllib")

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"


def declared_dependencies() -> set[str]:
    project = tomllib.loads((ROOT / "pyproject.toml").read_text())["project"]
    return {
        re.match(r"[A-Za-z0-9_.-]+", spec).group(0).lower().replace("-", "_")
        for spec in project["dependencies"]
    }


def imported_packages() -> dict[str, list[str]]:
    """Third-party top-level package -> the ``file:line`` sites importing it."""
    sites: dict[str, list[str]] = {}
    for path in sorted(SRC.rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Import):
                modules = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                modules = [node.module]
            else:
                continue
            for module in modules:
                top = module.split(".")[0]
                if top != "repro" and top not in sys.stdlib_module_names:
                    sites.setdefault(top, []).append(f"{path.relative_to(ROOT)}:{node.lineno}")
    return sites


def test_import_loads_no_dropped_dependency():
    probe = (
        "import sys, repro, repro.cli; "
        "print(' '.join(sorted(m for m in sys.modules "
        "if m.split('.')[0] in ('scipy', 'networkx'))))"
    )
    out = subprocess.run(
        [sys.executable, "-c", probe],
        env={**os.environ, "PYTHONPATH": str(SRC)},
        capture_output=True,
        text=True,
        check=True,
    ).stdout
    assert out.strip() == ""


def test_every_third_party_import_is_declared():
    undeclared = {
        package: sites
        for package, sites in imported_packages().items()
        if package not in declared_dependencies()
    }
    assert not undeclared


def test_every_declared_dependency_is_imported():
    assert declared_dependencies() <= set(imported_packages())
