"""The benchmark's tracer still finds every function it wraps.

``perfbench/tracing.py`` wraps the names in its ``TARGETS`` list by
attribute lookup, so renaming or deleting one of them in the package breaks
the benchmark while every other test passes.  Each case runs
``tracing.install`` in a fresh interpreter with ``PYTHONPATH=src:perfbench``;
the mutants first delete one traced name from its module and must fail.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent

# argv[1:] names "module:attribute" entries of TARGETS to delete before install
SCRIPT = """
import importlib, sys
import tracing
for entry in sys.argv[1:]:
    mod_name, attr = entry.split(":")
    assert any(t[:2] == (mod_name, attr) for t in tracing.TARGETS), entry
    owner = importlib.import_module(mod_name)
    *path, name = attr.split(".")
    for part in path:
        owner = getattr(owner, part)
    delattr(owner, name)
tracing.install(tracing.Tracer())
"""


def _install(*deleted):
    env = dict(os.environ,
               PYTHONPATH=os.pathsep.join(str(ROOT / p) for p in ("src", "perfbench")))
    return subprocess.run([sys.executable, "-c", SCRIPT, *deleted], cwd=ROOT, env=env,
                          capture_output=True, text=True, timeout=120)


def test_tracer_installs():
    run = _install()
    assert run.returncode == 0, run.stderr


@pytest.mark.parametrize("deleted", ["mixsym.sl2:CosetTable.coset_of",
                                     "mixsym.zlattice:snf"])
def test_tracer_fails_on_a_deleted_target(deleted):
    run = _install(deleted)
    assert run.returncode != 0
    assert "in install" in run.stderr and "AttributeError" in run.stderr, run.stderr
