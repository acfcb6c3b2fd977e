"""The suite's own pytest settings let a failing property test report.

Every warning is an error in this suite, and hypothesis's failure report
imports modules that raise a DeprecationWarning; unless the settings let
that one warning pass, a single failing ``@given`` test aborts the whole
run with INTERNALERROR and no later test runs.
"""

import subprocess
import sys
from pathlib import Path

PYPROJECT = Path(__file__).resolve().parent.parent / "pyproject.toml"

THROWAWAY = """
from hypothesis import given, settings, strategies as st


@given(st.integers())
@settings(database=None, derandomize=True)
def test_fails(x):
    assert x < 0


def test_passes():
    pass
"""


def test_failing_property_test_reports_and_the_run_goes_on(tmp_path):
    (tmp_path / "test_throwaway.py").write_text(THROWAWAY)
    run = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
         "-c", str(PYPROJECT), "--rootdir", str(tmp_path), "test_throwaway.py"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert "INTERNALERROR" not in run.stdout + run.stderr
    assert "1 failed, 1 passed" in run.stdout
    assert run.returncode == 1
