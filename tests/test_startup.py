"""What a qftalg process loads before it runs a command."""

import os
import subprocess
import sys
from pathlib import Path

import qftalg


def test_cli_import_loads_neither_dataclasses_nor_inspect():
    # the records are NamedTuples, so start-up needs neither module; the
    # two cost several milliseconds in the process of every command
    code = "import sys, qftalg.cli; print(sorted({'dataclasses', 'inspect'} & set(sys.modules)))"
    env = dict(os.environ, PYTHONPATH=str(Path(qftalg.__file__).parents[1]))
    proc = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, env=env, timeout=120
    )
    assert (proc.returncode, proc.stdout) == (0, "[]\n"), proc.stderr
