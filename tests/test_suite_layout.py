"""The suite collects whole whatever order its directories are named in.

``tests/`` and ``benchmarks/`` each have a ``conftest.py``, and pytest
imports both under the one module name ``conftest``.  A test module that
imported from "its" conftest would bind whichever one pytest loaded
first, so its collection would hang on the order of the command line.
"""

import ast
import os
import subprocess
import sys
from pathlib import Path

import pytest

REPO_ROOT = Path(__file__).resolve().parent.parent
TEST_DIRS = ("tests", "benchmarks")


def _imports_a_conftest(node):
    if isinstance(node, ast.ImportFrom):
        return (node.module or "").split(".")[-1] == "conftest"
    if isinstance(node, ast.Import):
        return any(alias.name.split(".")[-1] == "conftest" for alias in node.names)
    return False


def test_no_test_module_imports_a_conftest():
    offenders = [
        str(path.relative_to(REPO_ROOT))
        for directory in TEST_DIRS
        for path in sorted((REPO_ROOT / directory).glob("*.py"))
        if any(_imports_a_conftest(node) for node in ast.walk(ast.parse(path.read_text())))
    ]
    assert offenders == []


@pytest.mark.parametrize("order", [TEST_DIRS, TEST_DIRS[::-1]], ids="-then-".join)
def test_collection_does_not_depend_on_argument_order(order):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(REPO_ROOT / "src"), env.get("PYTHONPATH")])
    )
    run = subprocess.run(
        [sys.executable, "-m", "pytest", "--collect-only", "-q", "-p", "no:cacheprovider", *order],
        cwd=REPO_ROOT, env=env, capture_output=True, text=True, timeout=120,
    )
    assert run.returncode == 0, run.stdout[-3000:] + run.stderr[-3000:]
    collected = {line.split("::", 1)[0] for line in run.stdout.splitlines() if "::" in line}
    expected = {
        f"{directory}/{path.name}"
        for directory in TEST_DIRS
        for path in (REPO_ROOT / directory).glob("test_*.py")
    }
    assert expected <= collected
