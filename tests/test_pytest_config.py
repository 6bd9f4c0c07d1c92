"""The pytest configuration in ``pyproject.toml`` as a run sees it."""

import subprocess
import sys
import textwrap
from pathlib import Path

PYPROJECT = Path(__file__).parents[1] / "pyproject.toml"


def test_a_failing_given_test_is_reported_and_the_run_goes_on(tmp_path):
    # reporting a failing example loads hypothesis's patching helpers; where
    # libcst is installed that import warns, and "error" alone turned the
    # warning into an INTERNALERROR that ended the run with exit code 3
    test_file = tmp_path / "test_sample.py"
    test_file.write_text(textwrap.dedent("""\
        from hypothesis import given, strategies as st


        @given(st.integers())
        def test_fails(n):
            assert n < 0


        def test_passes():
            pass
    """))
    proc = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
         "-c", str(PYPROJECT), "--rootdir", str(tmp_path), str(test_file)],
        capture_output=True, text=True, cwd=tmp_path, timeout=300,
    )
    assert proc.returncode == 1, proc.stdout + proc.stderr
    assert "1 failed, 1 passed" in proc.stdout
    assert "INTERNALERROR" not in proc.stdout + proc.stderr
