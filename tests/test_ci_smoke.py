"""The smoke steps of the CI workflow, run in-process through ``mixsym.cli.main``.

The commands are read from the ``run: |`` blocks of
``.github/workflows/tier1.yml`` as text, so the workflow and this test run
the same list.  A line may chain commands with ``&&``; a line
``rc=0; CMD || rc=$?; test "$rc" -eq K`` expects exit code K, every other
command 0.  ``$RUNNER_TEMP`` is a temporary directory, and the line that
writes the nested JSON document is replaced by writing it here.
"""

import contextlib
import io
import re
import shlex
from pathlib import Path

import pytest

from mixsym.cli import main

WORKFLOW = Path(__file__).resolve().parent.parent / ".github" / "workflows" / "tier1.yml"
STEPS = ("CLI smoke", "Hecke smoke at composite levels")
EXPECTS = re.compile(r'^rc=0; (.*) \|\| rc=\$\?; test "\$rc" -eq (\d+)$')
NESTED = re.compile(
    r"""^python -c 'print\("\[" \* (\d+) \+ "\]" \* \1\)' > "\$RUNNER_TEMP/([\w.-]+)"$""")


def run_block(step):
    """The lines of the ``run: |`` block of the named workflow step."""
    lines = WORKFLOW.read_text().splitlines()
    at = lines.index(f"      - name: {step}")
    assert lines[at + 1].strip() == "run: |", step
    indent = len(lines[at + 2]) - len(lines[at + 2].lstrip())
    block = []
    for line in lines[at + 2:]:
        if len(line) - len(line.lstrip()) < indent or not line.strip():
            break
        block.append(line.strip())
    return block


def _exit_code(argv):
    """The exit code of main(argv), counting an argparse exit; output dropped."""
    with contextlib.redirect_stdout(io.StringIO()), \
            contextlib.redirect_stderr(io.StringIO()):
        try:
            return main(argv)
        except SystemExit as e:
            return e.code


@pytest.mark.parametrize("step", STEPS)
def test_smoke_step_exit_codes(step, tmp_path):
    runs, wrong = 0, []
    for line in run_block(step):
        nested = NESTED.match(line)
        if nested:
            depth = int(nested.group(1))
            (tmp_path / nested.group(2)).write_text("[" * depth + "]" * depth + "\n")
            continue
        expects = EXPECTS.match(line)
        commands, want = ((expects.group(1),), int(expects.group(2))) if expects \
            else (line.split(" && "), 0)
        for command in commands:
            argv = shlex.split(command.replace("$RUNNER_TEMP", str(tmp_path)))
            assert argv[0] == "mixsym", f"unrecognised smoke line: {line}"
            code = _exit_code(argv[1:])
            runs += 1
            if code != want:
                wrong.append(f"{command}: exit {code}, step expects {want}")
    assert runs
    assert not wrong, "\n".join(wrong)
