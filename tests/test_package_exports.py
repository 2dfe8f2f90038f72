"""Lazy package exports: every public name resolves, nothing loads early.

Each ``repro.<pkg>/__init__.py`` re-exports through
:func:`repro._lazy.lazy_exports`, so a name is imported on first read.
A broken table entry would only fail at that read; these tests read
every name, in this interpreter and in a fresh one per package (where
no earlier test has imported the submodules already).
"""

from __future__ import annotations

import importlib
import os
import subprocess
import sys
import types
from pathlib import Path

import pytest

SRC_PATH = str(Path(__file__).resolve().parent.parent / "src")

PACKAGES = [
    "accelerator", "ann", "baselines", "coord", "experiments", "hdc",
    "index", "ms", "obs", "oms", "rram", "service", "store",
]


@pytest.mark.parametrize("name", PACKAGES)
def test_every_exported_name_resolves_and_is_listed(name):
    package = importlib.import_module(f"repro.{name}")
    assert package.__all__, "an empty export table"
    assert len(set(package.__all__)) == len(package.__all__)
    listed = dir(package)
    for export in package.__all__:
        value = getattr(package, export)
        # A submodule import rebinding a same-named export (repro.ms's
        # ``vectorize``) would surface here as a module.
        assert not isinstance(value, types.ModuleType), export
        assert export in listed
    namespace: dict = {}
    exec(f"from repro.{name} import *", namespace)
    assert set(package.__all__) <= set(namespace)
    with pytest.raises(AttributeError):
        getattr(package, "no_such_export")


@pytest.mark.parametrize("name", PACKAGES)
def test_exports_resolve_in_a_fresh_interpreter(name):
    """First reads in a clean process: no import cycle hides behind a warm cache."""
    script = (
        f"import repro.{name} as package\n"
        "for export in package.__all__:\n"
        "    getattr(package, export)\n"
        f"from repro.{name} import *\n"
    )
    completed = subprocess.run(
        [sys.executable, "-c", script],
        capture_output=True,
        text=True,
        timeout=120,
        env={**os.environ, "PYTHONPATH": SRC_PATH},
    )
    assert completed.returncode == 0, completed.stderr


def test_importing_a_submodule_runs_none_of_its_siblings():
    script = (
        "import sys\n"
        "import repro.ms.spectrum, repro.oms.kernel, repro.hdc.packing\n"
        "loaded = sorted(m for m in sys.modules if m.startswith('repro.'))\n"
        "unwanted = {'repro.ms.synthetic', 'repro.ms.decoy', 'repro.ms.msp',\n"
        "            'repro.oms.pipeline', 'repro.store.search',\n"
        "            'repro.oms.modification_analysis', 'repro.hdc.alt_encoders'}\n"
        "assert not unwanted & set(loaded), sorted(unwanted & set(loaded))\n"
    )
    completed = subprocess.run(
        [sys.executable, "-c", script],
        capture_output=True,
        text=True,
        timeout=120,
        env={**os.environ, "PYTHONPATH": SRC_PATH},
    )
    assert completed.returncode == 0, completed.stderr
