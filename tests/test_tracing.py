"""The benchmark's tracer still finds every function it wraps.

``perfbench/tracing.py`` wraps the names in its ``TARGETS`` list by
attribute lookup, so renaming or deleting one of them in the package breaks
the benchmark while every other test passes.  Each case runs
``tracing.install`` in a fresh interpreter with ``PYTHONPATH=src:perfbench``;
the mutants first delete one traced name from its module and must fail.  A
wrapper copies its function's signature, so one case also runs a verify
suite through the wrapped functions and reads the calls they recorded.
"""

import json
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

# installs a tracer, runs main on argv[1:] and prints its exit code and the
# calls per span name as the last line of stdout
RUN = """
import json, sys
import tracing
from mixsym import cli
tracer = tracing.Tracer()
tracing.install(tracer)
code = cli.main(sys.argv[1:])
calls = {k: v["calls"] for k, v in tracing.summarize(tracer.doc()).items()}
print(json.dumps({"exit": code, "calls": calls}))
"""


def _python(script, *args):
    env = dict(os.environ,
               PYTHONPATH=os.pathsep.join(str(ROOT / p) for p in ("src", "perfbench")))
    return subprocess.run([sys.executable, "-c", script, *args], cwd=ROOT, env=env,
                          capture_output=True, text=True, timeout=120)


def _install(*deleted):
    return _python(SCRIPT, *deleted)


def test_tracer_installs():
    run = _install()
    assert run.returncode == 0, run.stderr


def test_tracer_records_the_eis_suite():
    run = _python(RUN, "verify", "--suite", "eis", "--pn", "25")
    assert run.returncode == 0, run.stderr
    got = json.loads(run.stdout.splitlines()[-1])
    assert got["exit"] == 0, run.stderr
    for name in ("eis.logdet_identity", "eis.l_even_char_at_1"):
        assert got["calls"].get(name, 0) > 0, (name, got["calls"])


@pytest.mark.parametrize("deleted", ["mixsym.sl2:CosetTable.coset_of",
                                     "mixsym.zlattice:snf"])
def test_tracer_fails_on_a_deleted_target(deleted):
    run = _install(deleted)
    assert run.returncode != 0
    assert "in install" in run.stderr and "AttributeError" in run.stderr, run.stderr
