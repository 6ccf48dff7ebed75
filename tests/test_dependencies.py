"""Declared dependencies match what the library imports.

Every third-party top-level module imported anywhere under
``src/repro`` must be named in ``[project] dependencies`` of
``pyproject.toml``; otherwise a clean ``pip install .`` yields a package
that fails at import time.  The runtime needs the standard library
only, so every module must import in an interpreter without
site-packages.
"""

import ast
import os
import re
import subprocess
import sys

import pytest

tomllib = pytest.importorskip("tomllib")  # stdlib from Python 3.11

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
PACKAGE = os.path.join(SRC, "repro")


def _top_level_imports():
    found = set()
    for directory, _dirs, files in os.walk(PACKAGE):
        for name in files:
            if not name.endswith(".py"):
                continue
            with open(os.path.join(directory, name), encoding="utf-8") as f:
                tree = ast.parse(f.read())
            for node in ast.walk(tree):
                if isinstance(node, ast.Import):
                    found.update(a.name.split(".")[0] for a in node.names)
                elif isinstance(node, ast.ImportFrom) and node.level == 0:
                    found.add(node.module.split(".")[0])
    return found


def test_every_module_imports_without_site_packages():
    script = (
        "import importlib, pkgutil, sys\n"
        f"sys.path.insert(0, {SRC!r})\n"
        "import repro\n"
        "names = [info.name for info in pkgutil.walk_packages(repro.__path__, 'repro.')]\n"
        "for name in names:\n"
        "    importlib.import_module(name)\n"
        "print(len(names))\n"
    )
    result = subprocess.run(
        [sys.executable, "-S", "-c", script],
        capture_output=True, text=True, timeout=120,
    )
    assert result.returncode == 0, result.stderr
    assert int(result.stdout) > 100


def _declared():
    with open(os.path.join(ROOT, "pyproject.toml"), "rb") as f:
        project = tomllib.load(f)["project"]
    return {
        re.split(r"[\s<>=!~;\[]", spec, maxsplit=1)[0].lower()
        for spec in project.get("dependencies", [])
    }


def test_third_party_imports_are_declared():
    third_party = {
        name
        for name in _top_level_imports()
        if name != "repro" and name not in sys.stdlib_module_names
    }
    missing = sorted({name.lower() for name in third_party} - _declared())
    assert not missing, (
        f"src/repro imports {missing} but pyproject.toml does not declare "
        "them in [project] dependencies"
    )
